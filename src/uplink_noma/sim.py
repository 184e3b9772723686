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
which `SweepConfig`, `run_sweep` and the CLI read; the four-user cases use
`matching_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    TransmitSnr, ValidationError, _row_sum_order, check_received_snr, group_sum_rate, log2_1p,
    sic_rates,
)
from .allocation import m_user_shares
from .channel import sample_gain_rows
from .pairing import FOUR_USER_PAIRS, matching_rates

DEFAULT_SNR_DB = tuple(float(db) for db in range(-10, 31, 5))
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_GROUP_SIZE = 12

# most gains (trials x users) in a sweep's one draw, shared by all its grid
# points; the sampler holds them all at once and the sweep keeps them to its
# last point, so a larger sweep is refused before anything is allocated
MAX_SWEEP_GAINS = 2**26


def _two_user_rates(rho, gains):
    """One C-contiguous (4, trials) block: the NOMA rates of both users at
    the optimal split, then their OMA rates, each row ready to reduce."""
    block = np.empty((4, len(gains)))
    sic_rates(rho, m_user_shares(rho * gains[:, 0], 2), gains, out=block[:2].T)
    oma = log2_1p(np.multiply(rho, gains.T, out=block[2:]), out=block[2:])
    oma *= 0.5
    return block


def _group_and_oma_sums(rho, gains):
    """Each row's recursive-split NOMA sum (at two users, the optimal pair)
    and its 1/M orthogonal sum, each row summed in one order whatever the
    gains' layout (as in `group_sum_rate`)."""
    m = gains.shape[1]
    noma = group_sum_rate(rho, m_user_shares(rho * gains[:, 0], m), gains)
    return noma, np.sum(log2_1p(np.multiply(rho, gains, order=_row_sum_order(m))), axis=1) / m


def _four_user_sums(rho, gains):
    return matching_rates(rho, gains, FOUR_USER_PAIRS).sum(axis=-1).T


# mode -> (series columns, means first, in CLI output order; the group size
# the mode requires, or None for any; per-point kernel: (rho, (trials, users)
# gain matrix) -> per-trial samples of each column, as a tuple of arrays or
# one (columns, trials) array)
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
        if self.users is None:
            object.__setattr__(self, "users", size or DEFAULT_GROUP_SIZE)
        if not (isinstance(self.users, (int, np.integer)) and self.users >= 2):
            raise ValidationError(f"users must be an integer >= 2, got {self.users!r}")
        if size is not None and self.users != size:
            raise ValidationError(f"{self.mode} requires users={size}, got {self.users}")
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValidationError(f"trials must be an integer >= 1, got {self.trials!r}")
        if int(self.trials) * int(self.users) > MAX_SWEEP_GAINS:
            raise ValidationError(
                f"trials x users of {self.trials} x {self.users} exceeds "
                f"{MAX_SWEEP_GAINS} gains in the sweep's one draw"
            )
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        grid = np.asarray(self.snr_db, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ValidationError("snr_db must be a nonempty finite 1-d grid")
        if np.any(np.diff(grid) <= 0.0):
            raise ValidationError("snr_db grid must be strictly ascending")
        object.__setattr__(self, "users", int(self.users))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "snr_db", tuple(float(v) for v in grid))


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
        grid = np.asarray(self.snr_db, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "snr_db", grid)
        for name, table in (("series", self.series), ("stderr", self.stderr)):
            for key, values in table.items():
                arr = np.asarray(values, dtype=float)
                if arr.shape != grid.shape:
                    raise ValidationError(f"{name}[{key!r}] must have one value per point")
                if not np.all(np.isfinite(arr)):
                    raise ValidationError(f"{name}[{key!r}] must be finite")
                if np.any(arr < 0.0):
                    raise ValidationError(f"{name}[{key!r}] must be nonnegative")
                arr.setflags(write=False)
                table[key] = arr
        if set(self.series) != set(self.stderr):
            raise ValidationError("series and stderr must report the same columns")


def _mean_and_stderr(samples) -> tuple:
    """Mean and standard error (0 at one trial) of each equal-length series,
    reduced at once along the trial axis of one C-contiguous (series, trials)
    array: a kernel's block as it is, a tuple or strided array copied into
    one. A strided view would be summed in another order, a few ulps off.
    The steps are those of numpy's `mean` and `std(ddof=1)`, so the bits are
    theirs, but the mean is summed once and the deviations squared in place."""
    stack = np.ascontiguousarray(samples)
    n = stack.shape[1]
    mean = stack.sum(axis=1) / n
    if n < 2:
        return mean, np.zeros_like(mean)
    deviations = stack - mean[:, np.newaxis]
    deviations *= deviations
    return mean, np.sqrt(deviations.sum(axis=1) / (n - 1)) / math.sqrt(n)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Average the config's mode kernel over the SNR grid, every point on the
    sweep's one gain draw (trials 0 .. trials-1 of the seed's stream)."""
    names, _, kernel = MODES[config.mode]
    rhos = [TransmitSnr.from_db(snr_db).rho for snr_db in config.snr_db]
    gains = sample_gain_rows(config.users, config.seed, config.trials)
    check_received_snr(rhos, gains)  # every point's, before any kernel product can overflow
    means = np.empty((len(names), len(rhos)))
    errors = np.empty_like(means)
    for point, rho in enumerate(rhos):
        means[:, point], errors[:, point] = _mean_and_stderr(kernel(rho, gains))
    return SweepResult(
        mode=config.mode,
        users=config.users,
        snr_db=np.asarray(config.snr_db),
        series=dict(zip(names, means)),
        stderr=dict(zip(names, errors)),
        trials=config.trials,
        seed=config.seed,
    )
