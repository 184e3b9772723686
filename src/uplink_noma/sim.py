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
`matching_sums`. A mode's kernel is set up once per sweep, on the draw: it
allocates the (columns, trials) output block and any trials x users
buffers then, every grid point overwrites them, and the reduce squares the
deviations in the block itself.
The sweep holds its draw and this workspace to its last point. A group
point allocates no row-length temporary; a two-user rates point still
allocates one, and a four-user cases point the pair rates and sums of
`matching_sums`. Each point's bits are those it would have alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    TransmitSnr, ValidationError, ascending_grid, check_integer, check_received_snr, frozen,
    group_sum_rate, log2_1p,
)
from .allocation import m_user_shares
from .channel import sample_gain_rows
from .pairing import FOUR_USER_PAIRS, matching_sums, pair_rates

DEFAULT_SNR_DB = tuple(float(db) for db in range(-10, 31, 5))
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_GROUP_SIZE = 12

# most gains (trials x users) in a sweep's one draw, shared by all its grid
# points; the sampler holds them all at once, and the sweep keeps them and its
# workspace (at most one more trials x users buffer, in the group-sum modes)
# to its last point, so a larger sweep is refused before anything is allocated
MAX_SWEEP_GAINS = 2**26


def _two_user_rates(gains):
    """Point kernel into one C-contiguous (4, trials) block: the NOMA rates of
    both users at the optimal split, then their OMA rates. `pair_rates` writes
    rho*g1, the shares and then the SIC rates over the NOMA rows, so the
    block is the point's only buffer."""
    block = np.empty((4, len(gains)))

    def point(rho):
        pair_rates(rho, gains, out=block[:2].T)
        oma = log2_1p(np.multiply(rho, gains.T, out=block[2:]), out=block[2:])
        oma *= 0.5
        return block

    return point


def _group_and_oma_sums(gains):
    """Point kernel into one C-contiguous (2, trials) block: each row's
    recursive-split NOMA sum (at two users, the optimal pair) and its 1/M
    orthogonal sum. One C-contiguous (users, trials) terms buffer serves every
    point: it takes the shares, then their products with the gains, whose
    sum rate `group_sum_rate` writes into the NOMA row, and then the OMA log
    terms, which `np.add.reduce` sums into the OMA row in the same order
    whatever the gains' layout."""
    trials, m = gains.shape
    users = gains.T  # users leading, contiguous for the sampler's rows
    block = np.empty((2, trials))
    terms = np.empty((m, trials))

    def point(rho):
        m_user_shares(np.multiply(rho, users[0], out=block[0]), m, out=terms)
        group_sum_rate(rho, np.multiply(terms, users, out=terms), out=block[0])
        log2_1p(np.multiply(rho, users, out=terms), out=terms)
        np.divide(np.add.reduce(terms, axis=0, out=block[1]), m, out=block[1])
        return block

    return point


def _four_user_sums(gains):
    """Point kernel into one C-contiguous (3, trials) block of the three
    pairings' sum rates."""
    block = np.empty((3, len(gains)))

    def point(rho):
        block.T[...] = matching_sums(rho, gains, FOUR_USER_PAIRS)
        return block

    return point


# mode -> (series columns, means first, in CLI output order; the group size
# the mode requires, or None for any; per-sweep kernel: (trials, users) gain
# matrix -> point function, rho -> per-trial samples of each column as one
# C-contiguous (columns, trials) block). The kernel allocates the block and
# every buffer once and each point overwrites them, so the caller may
# overwrite a point's block, as `_mean_and_stderr` does, until the next point.
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
    reduced at once along the trial axis of one C-contiguous (series, trials)
    array: a kernel's block as it is, a tuple or strided array copied into
    one. A strided view would be summed in another order, a few ulps off.
    The steps are those of numpy's `mean` and `std(ddof=1)`, so the bits are
    theirs, but the mean is summed once and the deviations are squared in
    place: a C-contiguous array given is overwritten with them."""
    stack = np.ascontiguousarray(samples)
    n = stack.shape[1]
    mean = stack.sum(axis=1) / n
    if n < 2:
        return mean, np.zeros_like(mean)
    np.subtract(stack, mean[:, np.newaxis], out=stack)
    stack *= stack
    return mean, np.sqrt(stack.sum(axis=1) / (n - 1)) / math.sqrt(n)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Average the config's mode kernel over the SNR grid, every point on the
    sweep's one gain draw (trials 0 .. trials-1 of the seed's stream)."""
    names, _, kernel = MODES[config.mode]
    rhos = [TransmitSnr.from_db(snr_db).rho for snr_db in config.snr_db]
    gains = sample_gain_rows(config.users, config.seed, config.trials)
    check_received_snr(rhos, gains)  # every point's, before any kernel product can overflow
    point = kernel(gains)
    means = np.empty((len(names), len(rhos)))
    errors = np.empty_like(means)
    for i, rho in enumerate(rhos):
        means[:, i], errors[:, i] = _mean_and_stderr(point(rho))
    return SweepResult(
        mode=config.mode,
        users=config.users,
        snr_db=np.asarray(config.snr_db),
        series=dict(zip(names, means)),
        stderr=dict(zip(names, errors)),
        trials=config.trials,
        seed=config.seed,
    )
