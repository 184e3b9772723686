"""Seeded Monte Carlo sweeps comparing NOMA against orthogonal access.

Each sweep averages ergodic rates over Rayleigh fading: rates are computed
per draw and then averaged, never the other way around. The fading does not
depend on the SNR, so a sweep draws its (trials, M) gain matrix once, at
most MAX_SWEEP_GAINS gains, in one `sample_gain_rows` call on the seed's
stream, and every grid point evaluates the mode's kernel on that same
matrix as arrays (common random numbers). Trials are independent: trial t
is words t*M .. t*M+M-1 of that stream, so averages are
reproducible bit for bit regardless of execution order or batching, and a
point's value does not depend on the rest of the grid. The points of one
curve share their draws, so they move together from seed to seed; each
point's mean and standard error are those of its own independent trials.
Each mode's columns, group size and kernel live in one table, `MODES`,
which `SweepConfig`, `run_sweep` and the CLI read; the two-user rates use
`pair_rates`, the group sums `group_sum_rate` and the four-user cases
`matching_sums`. A sweep walks its grid in blocks of points, one kernel
call and one reduce each. A block is as many points as fit in BLOCK_BYTES
of workspace, its output rows and the trial-length buffers a point holds,
at least one and at most the grid. A mode's kernel is set up once per
sweep, on the draw: it allocates the (width, columns, trials) output block
and any users x trials buffers then, every block overwrites them, and the
reduce squares the deviations in the block itself.
The sweep holds its draw and this workspace, at most BLOCK_BYTES or one
point's, to its last point. A group block allocates no row-length
temporary; a two-user rates block still allocates one a point, and a
four-user cases block the pair rates and sums of `matching_sums`. Every
op is elementwise or reduces along an axis that blocking does not change,
so each point's bits are those it would have alone. A group block's OMA
row is the users' natural-log terms log1p(rho*g), summed over the users
and then scaled once by 1/(M ln 2); its rho*g products are made one point
at a time with a scalar rho, so no numpy loop runs through buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    LN2, TransmitSnr, ValidationError, ascending_grid, check_integer, check_received_snr, frozen,
    group_sum_rate, log2_1p,
)
from .allocation import recursive_shares
from .channel import sample_gain_rows
from .pairing import FOUR_USER_PAIRS, matching_sums, pair_rates

DEFAULT_SNR_DB = tuple(float(db) for db in range(-10, 31, 5))
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_GROUP_SIZE = 12

# most gains (trials x users) in a sweep's one draw, shared by all its grid
# points; the sampler holds them all at once, and the sweep keeps them and its
# workspace (at most BLOCK_BYTES or one point's: in the group-sum modes, one
# more trials x users buffer) to its last point, so a larger sweep is refused
# before anything is allocated
MAX_SWEEP_GAINS = 2**26

# most bytes of workspace one kernel call may hold for its block of grid
# points; a point needing more is a block of its own
BLOCK_BYTES = 2**20


def _block_width(rows: int, trials: int, points: int) -> int:
    """Grid points per kernel call: as many as BLOCK_BYTES holds at `rows`
    float rows of `trials` values a point, at least 1 and at most `points`.
    A one-trial point stays alone: numpy sums a group's users pairwise over
    one value a user, but left to right over several (`group_sum_rate`)."""
    if trials == 1:
        return 1
    return max(1, min(points, BLOCK_BYTES // (8 * rows * trials)))


def _blocked(evaluate, block):
    """A kernel's point function over its C-contiguous (width, columns,
    trials) block. rho, a number or a 1-d block of at most `width` values,
    gives its (columns, trials) or (len(rho), columns, trials) head of the
    block, which `evaluate(rho, head)` fills from rho as a (len(rho), 1)
    column. The width is the function's `width`."""

    def point(rho):
        column = np.reshape(np.asarray(rho, dtype=float), (-1, 1))
        head = block[: len(column)]
        evaluate(column, head)
        return head if np.ndim(rho) else head[0]

    point.width = len(block)
    return point


def _two_user_rates(gains, points=1):
    """Kernel into (width, 4, trials) blocks: each point's NOMA rates of both
    users at the optimal split, then their OMA rates. `pair_rates` writes
    rho*g1, the shares and then the SIC rates over the NOMA rows, and
    allocates one row a point, of SIC denominators: five rows a point."""
    block = np.empty((_block_width(5, len(gains), points), 4, len(gains)))

    def evaluate(rho, out):
        pair_rates(rho, gains, out=out[:, :2].swapaxes(1, 2))
        oma = log2_1p(np.multiply(rho[..., None], gains.T, out=out[:, 2:]), out=out[:, 2:])
        oma *= 0.5

    return _blocked(evaluate, block)


def _group_and_oma_sums(gains, points=1):
    """Kernel into (width, 2, trials) blocks: each row's recursive-split NOMA
    sum (at two users, the optimal pair) and its 1/M orthogonal sum. One
    C-contiguous (users, width, trials) terms buffer serves every block: it
    takes the shares, then their products with the gains, whose sum rate
    `group_sum_rate` writes into the NOMA rows, and then the OMA terms. Those
    are the products rho*g, made one point at a time with a scalar rho, so
    no loop is buffered, and then their natural logs log1p(rho*g), which
    `np.add.reduce` sums into the OMA rows in the same order whatever the
    gains' layout; each row is then scaled once by 1/(M ln 2). A point holds
    2 + M rows."""
    trials, m = gains.shape
    users = gains.T[:, np.newaxis]  # users leading, contiguous for the sampler's rows
    block = np.empty((_block_width(2 + m, trials, points), 2, trials))
    terms = np.empty(m * len(block) * trials)  # a ragged block takes its C-contiguous head

    def evaluate(rho, out):
        products = terms[: m * len(out) * trials].reshape(m, len(out), trials)
        recursive_shares(np.multiply(rho, users[0], out=out[:, 0]), m, out=products)
        group_sum_rate(rho, np.multiply(products, users, out=products), out=out[:, 0])
        for k, rho_k in enumerate(rho[:, 0]):  # a scalar rho a point: no buffered loop
            np.multiply(users[:, 0], rho_k, out=products[:, k])
        np.log1p(products, out=products)
        np.divide(np.add.reduce(products, axis=0, out=out[:, 1]), m * LN2, out=out[:, 1])

    return _blocked(evaluate, block)


def _four_user_sums(gains, points=1):
    """Kernel into (width, 3, trials) blocks of the three pairings' sum
    rates. `matching_sums` allocates the rest, at most 32 rows a point: the
    six pairs' gains, their rates and sums, and one temporary."""
    block = np.empty((_block_width(3 + 32, len(gains), points), 3, len(gains)))

    def evaluate(rho, out):
        out.swapaxes(1, 2)[...] = matching_sums(rho, gains, FOUR_USER_PAIRS)

    return _blocked(evaluate, block)


# mode -> (series columns, means first, in CLI output order; the group size
# the mode requires, or None for any; per-sweep kernel: (trials, users) gain
# matrix and the grid's length -> point function, rho -> per-trial samples of
# each column as one C-contiguous block). A kernel walks the grid in blocks of
# points: `point(rhos)`, for up to `point.width` of them, fills a (len(rhos),
# columns, trials) block, and a number rho a (columns, trials) one. The width
# is as many points as fit in BLOCK_BYTES of workspace: the block's rows and
# the trial-length buffers a point holds. The kernel allocates the block and
# every buffer once and each call overwrites them, so the caller may
# overwrite a block, as `_mean_and_stderr` does, until the next call.
MODES = {
    "two-user-rates": (("R1_noma", "R2_noma", "R1_oma", "R2_oma"), 2, _two_user_rates),
    "two-user-sum": (("sum_noma", "sum_oma"), 2, _group_and_oma_sums),
    "four-user-cases": (("case1", "case2", "case3"), 4, _four_user_sums),
    "m-user-group": (("sum_noma", "sum_oma"), None, _group_and_oma_sums),
}


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """One sweep: mode, group size, SNR grid in dB, trial count, seed. A
    group size of None is the mode's own, or DEFAULT_GROUP_SIZE for a mode
    that takes any."""

    mode: str
    users: int | None = None
    snr_db: tuple = DEFAULT_SNR_DB
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        size = MODES[self.mode][1]
        users = self.users if self.users is not None else size or DEFAULT_GROUP_SIZE
        users = check_integer("users", users, 2)
        if size is not None and users != size:
            raise ValidationError(f"{self.mode} requires users={size}, got {users}")
        trials = check_integer("trials", self.trials, 1)
        if trials * users > MAX_SWEEP_GAINS:
            raise ValidationError(
                f"trials x users of {trials} x {users} exceeds "
                f"{MAX_SWEEP_GAINS} gains in the sweep's one draw"
            )
        seed = check_integer("seed", self.seed, 0)
        grid = ascending_grid("snr_db", self.snr_db, 1)
        for name, value in (("users", users), ("trials", trials), ("seed", seed),
                            ("snr_db", tuple(grid.tolist()))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Averaged series over the SNR grid with per-point standard errors."""

    mode: str
    users: int
    snr_db: np.ndarray
    series: dict
    stderr: dict
    trials: int
    seed: int

    def __post_init__(self):
        grid = frozen("snr_db", self.snr_db)
        object.__setattr__(self, "snr_db", grid)
        for name in ("series", "stderr"):
            table = {key: frozen(f"{name}[{key!r}]", values)
                     for key, values in getattr(self, name).items()}
            for key, arr in table.items():
                if arr.shape != grid.shape:
                    raise ValidationError(f"{name}[{key!r}] must have one value per point")
                if (arr < 0.0).any():
                    raise ValidationError(f"{name}[{key!r}] must be nonnegative")
            object.__setattr__(self, name, table)
        if set(self.series) != set(self.stderr):
            raise ValidationError("series and stderr must report the same columns")


def _mean_and_stderr(samples) -> tuple:
    """Mean and standard error (0 at one trial) of each equal-length series,
    reduced at once along the last, trial axis of one C-contiguous (...,
    series, trials) array: a kernel's block as it is, a tuple or strided
    array copied into one. A strided view would be summed in another order,
    a few ulps off. The steps are those of numpy's `mean` and `std(ddof=1)`,
    so the bits are theirs, but the mean is summed once and the deviations
    are squared in place: a C-contiguous array given is overwritten with them."""
    stack = np.ascontiguousarray(samples)
    n = stack.shape[-1]
    mean = stack.sum(axis=-1) / n
    if n < 2:
        return mean, np.zeros_like(mean)
    np.subtract(stack, mean[..., np.newaxis], out=stack)
    stack *= stack
    return mean, np.sqrt(stack.sum(axis=-1) / (n - 1)) / math.sqrt(n)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Average the config's mode kernel over the SNR grid, every point on the
    sweep's one gain draw (trials 0 .. trials-1 of the seed's stream), one
    kernel call and one reduce per block of points."""
    names, _, kernel = MODES[config.mode]
    rhos = np.array([TransmitSnr.from_db(snr_db).rho for snr_db in config.snr_db])
    gains = sample_gain_rows(config.users, config.seed, config.trials)
    check_received_snr(rhos, gains)  # every point's, before any kernel product can overflow
    point = kernel(gains, len(rhos))
    means = np.empty((len(rhos), len(names)))
    errors = np.empty_like(means)
    for start in range(0, len(rhos), point.width):
        block = slice(start, start + point.width)
        means[block], errors[block] = _mean_and_stderr(point(rhos[block]))
    return SweepResult(
        mode=config.mode,
        users=config.users,
        snr_db=np.asarray(config.snr_db),
        series=dict(zip(names, means.T)),
        stderr=dict(zip(names, errors.T)),
        trials=config.trials,
        seed=config.seed,
    )
