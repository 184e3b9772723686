"""Rate model for uplink power-domain NOMA with a shared power budget.

Index convention used throughout: user 1 is the weakest user, gains are
sorted ascending, and every per-user vector is ordered weakest first.
The receiver applies successive interference cancellation decoding the
strongest user first, so user i sees residual interference only from the
weaker users j < i and the weakest user is decoded interference free.

The package's boundary checks live here and raise ValidationError:
`check_integer`, `check_positive`, `real_array` (finite), `frozen` (its
read-only copy), `ascending_grid`, `check_gains` and `check_received_snr`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

# |sum(alphas) - 1| tolerance for a valid allocation of the shared budget
SUM_TO_ONE_TOL = 1e-12

# smallest received SNR rho*g accepted, the smallest normal float; shares and
# rates lose precision below it
MIN_RECEIVED_SNR = float(np.finfo(float).tiny)

_UINT64_MAX = 2**64 - 1  # the largest seed or trial index


class ValidationError(ValueError):
    """An argument violates a documented model invariant."""


class DimensionError(ValidationError):
    """Vector arguments disagree in length."""


def check_integer(name: str, value, low: int) -> int:
    """`value` as a Python int in [low, 2**64 - 1], from an int or numpy
    integer; a bool, float or text is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    if int(value) > _UINT64_MAX:
        raise ValidationError(f"{name} must be at most {_UINT64_MAX}, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """`value` as a Python float, from a finite positive real number such as
    an int or a numpy scalar; a bool, text or array is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number) and number > 0.0:
            return number
    raise ValidationError(f"{name} must be a positive finite number, got {value!r}")


def real_array(name: str, values) -> np.ndarray:
    """`values` as a finite float array, uncopied if it is one, from integers
    or reals; a bool, complex, text or object array, NaN or +-inf is refused."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be integer or real numbers, got dtype {array.dtype}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} must be finite")
    return array.astype(float, copy=False)


def frozen(name: str, values) -> np.ndarray:
    """A read-only float copy of `values`, checked as `real_array` checks it."""
    array = real_array(name, values).copy()
    array.setflags(write=False)
    return array


def ascending_grid(name: str, values, min_points: int) -> np.ndarray:
    """`values` as a strictly ascending 1-d `real_array` of `min_points` or more."""
    grid = real_array(name, values)
    if grid.ndim != 1 or grid.size < min_points or np.any(np.diff(grid) <= 0.0):
        raise ValidationError(
            f"{name} must be a strictly ascending 1-d grid of length >= {min_points}"
        )
    return grid


def log2_1p(y, out=None):
    """log2(1 + y), elementwise, accurate for small y; into `out` if given."""
    return np.divide(np.log1p(y, out=out), LN2, out=out)


@dataclass(frozen=True)
class TransmitSnr:
    """Transmit SNR rho in linear scale (transmit power over noise power)."""

    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", check_positive("rho", self.rho))

    @classmethod
    def from_db(cls, snr_db: float) -> "TransmitSnr":
        try:
            rho = 10.0 ** (float(snr_db) / 10.0)
        except OverflowError as exc:
            raise ValidationError(f"SNR of {snr_db!r} dB overflows a float") from exc
        if rho == 0.0:
            raise ValidationError(f"SNR of {snr_db!r} dB underflows a float")
        return cls(rho)


def check_gains(gains: np.ndarray) -> None:
    """Raise ValidationError unless every gain vector along the last axis is
    finite, strictly positive and sorted ascending (user 1 weakest)."""
    if not np.isfinite(gains).all():
        raise ValidationError("gains must be finite")
    if (gains <= 0.0).any():
        raise ValidationError("gains must be strictly positive")
    if (np.diff(gains, axis=-1) < 0.0).any():
        raise ValidationError("gains must be sorted ascending (user 1 weakest)")


@dataclass(frozen=True, eq=False)
class ChannelGains:
    """Squared channel magnitudes |h_i|^2, sorted ascending (weakest first)."""

    gains: np.ndarray

    def __post_init__(self):
        g = frozen("gains", self.gains)
        if g.ndim != 1 or g.size < 2:
            raise ValidationError("gains must be a 1-d vector of length >= 2")
        check_gains(g)
        object.__setattr__(self, "gains", g)

    @property
    def m(self) -> int:
        return int(self.gains.size)


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Power fractions alpha_i of the shared budget, weakest user first."""

    alphas: np.ndarray

    def __post_init__(self):
        a = frozen("alphas", self.alphas)
        if a.ndim != 1 or a.size < 2:
            raise ValidationError("alphas must be a 1-d vector of length >= 2")
        if not (a.min() > 0.0 and a.max() < 1.0):
            raise ValidationError("each alpha must lie strictly inside (0, 1)")
        total = float(a.sum())
        if abs(total - 1.0) > SUM_TO_ONE_TOL:
            raise ValidationError(
                f"alphas must sum to 1 within {SUM_TO_ONE_TOL:g}, got sum {total!r}"
            )
        object.__setattr__(self, "alphas", a)

    @property
    def m(self) -> int:
        return int(self.alphas.size)


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-user NOMA and OMA rates (bits/s/Hz) with their sums, which are
    taken from the frozen rate vectors, never given."""

    noma_rates: np.ndarray
    oma_rates: np.ndarray
    noma_sum: float = field(init=False)
    oma_sum: float = field(init=False)

    def __post_init__(self):
        rn = frozen("noma_rates", self.noma_rates)
        ro = frozen("oma_rates", self.oma_rates)
        if rn.ndim != 1 or ro.ndim != 1 or rn.size != ro.size:
            raise DimensionError("rate vectors must be 1-d and equal length")
        if (rn < 0.0).any() or (ro < 0.0).any():
            raise ValidationError("rates must be nonnegative")
        for label, vec in (("noma", rn), ("oma", ro)):
            object.__setattr__(self, f"{label}_rates", vec)
            object.__setattr__(self, f"{label}_sum", float(vec.sum()))


def check_received_snr(rho, gains) -> None:
    """Raise unless every rho*g, for rho and g positive numbers or arrays, is
    finite and normal (at least MIN_RECEIVED_SNR). The extreme products bound
    them all (NaN fails, an empty rho or g passes); Python floats overflow to
    inf without numpy's RuntimeWarning."""
    rho, gains = np.asarray(rho, dtype=float), np.asarray(gains, dtype=float)
    lowest = float(rho.min(initial=math.inf)) * float(gains.min(initial=math.inf))
    highest = float(rho.max(initial=0.0)) * float(gains.max(initial=0.0))
    if not (lowest >= MIN_RECEIVED_SNR and math.isfinite(highest)):
        raise ValidationError("rho*g must be positive, finite and normal")


def _require_same_length(gains: ChannelGains, alloc: PowerAllocation) -> None:
    if gains.m != alloc.m:
        raise DimensionError(f"{gains.m} gains but {alloc.m} power fractions")


def sic_rates(rho, alphas, gains, out=None):
    """Per-user SIC rates along the last axis, without validation.

    User i receives log2(1 + rho*a_i*g_i / (1 + sum_{j<i} rho*a_j*g_j)):
    the strongest user is decoded first against all weaker signals, the
    weakest user last with no residual interference. The interference sums
    run over the users left to right, as `np.cumsum` adds them.

    The rates go into `out` (the broadcast shape, any layout), which is
    returned; without it, into a new Fortran-ordered array, users leading in
    memory, so each user's rates and each step of the running sum are
    contiguous.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(rho), np.shape(alphas), np.shape(gains))
        out = np.empty(shape, order="F")
    np.multiply(rho, alphas, out=out)
    out *= gains  # out[..., i]: user i's signal, then its SINR
    interference = out[..., 0]
    for i in range(1, out.shape[-1]):
        denominator = 1.0 + interference
        if i + 1 < out.shape[-1]:
            interference = interference + out[..., i]
        np.divide(out[..., i], denominator, out=out[..., i])
    return log2_1p(out, out=out)


def group_sum_rate(rho, terms, out=None):
    """SIC sum rate log2(1 + rho*sum_i a_i*g_i) of users-leading (m, ...)
    products a_i*g_i, into `out` if given, without validation; the rates of
    `sic_rates` telescope to it. The users are summed by `np.add.reduce` over
    a C-contiguous copy (no copy if the products already are): left to right,
    ((t_0 + t_1) + t_2) + ..., when the rest of the shape holds two or more
    values, and in numpy's pairwise order for a vector sum when it holds one.
    So the bits never depend on the products' layout."""
    total = np.add.reduce(np.ascontiguousarray(terms), axis=0, out=out)
    return log2_1p(np.multiply(rho, total, out=out), out=out)


def noma_rates(gains: ChannelGains, alloc: PowerAllocation, snr: TransmitSnr) -> np.ndarray:
    """Per-user uplink NOMA rates under ascending-gain SIC (`sic_rates`)."""
    _require_same_length(gains, alloc)
    return sic_rates(snr.rho, alloc.alphas, gains.gains)


def oma_rates(gains: ChannelGains, snr: TransmitSnr) -> np.ndarray:
    """Orthogonal baseline: each of the M users gets a 1/M resource share."""
    return log2_1p(snr.rho * gains.gains) / gains.m


def noma_sum_rate(gains: ChannelGains, alloc: PowerAllocation, snr: TransmitSnr) -> float:
    """NOMA sum rate log2(1 + sum_i rho*a_i*g_i), the sum of `noma_rates`."""
    _require_same_length(gains, alloc)
    return float(group_sum_rate(snr.rho, alloc.alphas * gains.gains))
