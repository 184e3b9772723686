"""Seeded Monte Carlo sweeps comparing NOMA against orthogonal access.

Each sweep averages ergodic rates over Rayleigh fading: rates are computed
per draw and then averaged, never the other way around. Trials are
independent, and because every draw comes from its own (seed, point, trial)
stream the averages are reproducible bit for bit regardless of execution
order or batching. Each grid point draws its whole (trials, users) gain
matrix in one `sample_gain_rows` call and evaluates the mode's kernel on
it as arrays; no per-trial value objects are built. `run_sweep` reads the
mode's kernel from one table; the four-user cases use `matching_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import TransmitSnr, ValidationError, group_sum_rate, log2_1p, sic_rates
from .allocation import m_user_shares
from .channel import SeedSpec, sample_gain_rows
from .pairing import FOUR_USER_PAIRS, matching_rates

MODES = ("two-user-rates", "two-user-sum", "four-user-cases", "m-user-group")

DEFAULT_SNR_DB = tuple(float(db) for db in range(-10, 31, 5))
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 42
DEFAULT_GROUP_SIZE = 12

# column names per mode, means first, matching CLI output order
SERIES_BY_MODE = {
    "two-user-rates": ("R1_noma", "R2_noma", "R1_oma", "R2_oma"),
    "two-user-sum": ("sum_noma", "sum_oma"),
    "four-user-cases": ("case1", "case2", "case3"),
    "m-user-group": ("sum_noma", "sum_oma"),
}


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """One sweep: mode, group size, SNR grid in dB, trial count, seed."""

    mode: str
    users: int
    snr_db: tuple = DEFAULT_SNR_DB
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (isinstance(self.users, (int, np.integer)) and self.users >= 2):
            raise ValidationError(f"users must be an integer >= 2, got {self.users!r}")
        if self.mode.startswith("two-user") and self.users != 2:
            raise ValidationError(f"{self.mode} requires users=2, got {self.users}")
        if self.mode == "four-user-cases" and self.users != 4:
            raise ValidationError(f"{self.mode} requires users=4, got {self.users}")
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValidationError(f"trials must be an integer >= 1, got {self.trials!r}")
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


def _mean_and_stderr(samples: np.ndarray) -> tuple:
    mean = float(samples.mean())
    if samples.size < 2:
        return mean, 0.0
    return mean, float(samples.std(ddof=1) / math.sqrt(samples.size))


def _two_user_rates(rho, gains):
    noma = sic_rates(rho, m_user_shares(rho * gains[:, 0], 2), gains)
    return (*noma.T, *(0.5 * log2_1p(rho * gains)).T)


def _group_and_oma_sums(rho, gains):
    """Each row's recursive-split NOMA sum (at two users, the optimal pair)
    and its 1/M orthogonal sum."""
    noma = group_sum_rate(rho, m_user_shares(rho * gains[:, 0], gains.shape[1]), gains)
    return noma, np.sum(log2_1p(rho * gains), axis=1) / gains.shape[1]


# mode -> per-point kernel: (rho, (trials, users) gain matrix) -> one array
# of per-trial samples for each of the mode's SERIES_BY_MODE columns
_KERNELS = {
    "two-user-rates": _two_user_rates,
    "two-user-sum": _group_and_oma_sums,
    "four-user-cases": lambda rho, g: matching_rates(rho, g, FOUR_USER_PAIRS).sum(axis=-1).T,
    "m-user-group": _group_and_oma_sums,
}


def run_sweep(config: SweepConfig) -> SweepResult:
    """Average the per-point kernel of the config's mode over the SNR grid."""
    kernel = _KERNELS[config.mode]
    names = SERIES_BY_MODE[config.mode]
    series = {name: np.empty(len(config.snr_db)) for name in names}
    stderr = {name: np.empty(len(config.snr_db)) for name in names}
    for point, snr_db in enumerate(config.snr_db):
        rho = TransmitSnr.from_db(snr_db).rho
        gains = sample_gain_rows(config.users, SeedSpec(config.seed, point), config.trials)
        for name, samples in zip(names, kernel(rho, gains)):
            series[name][point], stderr[name][point] = _mean_and_stderr(samples)
    return SweepResult(
        mode=config.mode,
        users=config.users,
        snr_db=np.asarray(config.snr_db),
        series=series,
        stderr=stderr,
        trials=config.trials,
        seed=config.seed,
    )
