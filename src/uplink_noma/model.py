"""Rate model for uplink power-domain NOMA with a shared power budget.

Index convention used throughout: user 1 is the weakest user, gains are
sorted ascending, and every per-user vector is ordered weakest first.
The receiver applies successive interference cancellation decoding the
strongest user first, so user i sees residual interference only from the
weaker users j < i and the weakest user is decoded interference free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

# |sum(alphas) - 1| tolerance for a valid allocation of the shared budget
SUM_TO_ONE_TOL = 1e-12

# smallest received SNR rho*g accepted, the smallest normal float; shares and
# rates lose precision below it
MIN_RECEIVED_SNR = float(np.finfo(float).tiny)


class ValidationError(ValueError):
    """An argument violates a documented model invariant."""


class DimensionError(ValidationError):
    """Vector arguments disagree in length."""


def log2_1p(y, out=None):
    """log2(1 + y), elementwise, accurate for small y; into `out` if given."""
    return np.divide(np.log1p(y, out=out), LN2, out=out)


@dataclass(frozen=True)
class TransmitSnr:
    """Transmit SNR rho in linear scale (transmit power over noise power)."""

    rho: float

    def __post_init__(self):
        if not (isinstance(self.rho, (int, float)) and math.isfinite(self.rho)):
            raise ValidationError(f"rho must be a finite number, got {self.rho!r}")
        if self.rho <= 0.0:
            raise ValidationError(f"rho must be positive, got {self.rho!r}")

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
    if not np.all(np.isfinite(gains)):
        raise ValidationError("gains must be finite")
    if np.any(gains <= 0.0):
        raise ValidationError("gains must be strictly positive")
    if np.any(np.diff(gains, axis=-1) < 0.0):
        raise ValidationError("gains must be sorted ascending (user 1 weakest)")


@dataclass(frozen=True, eq=False)
class ChannelGains:
    """Squared channel magnitudes |h_i|^2, sorted ascending (weakest first)."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValidationError("gains must be a 1-d vector of length >= 2")
        check_gains(g)
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @property
    def m(self) -> int:
        return int(self.gains.size)


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Power fractions alpha_i of the shared budget, weakest user first."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValidationError("alphas must be a 1-d vector of length >= 2")
        if not np.all(np.isfinite(a)):
            raise ValidationError("alphas must be finite")
        if np.any(a <= 0.0) or np.any(a >= 1.0):
            raise ValidationError("each alpha must lie strictly inside (0, 1)")
        total = float(a.sum())
        if abs(total - 1.0) > SUM_TO_ONE_TOL:
            raise ValidationError(
                f"alphas must sum to 1 within {SUM_TO_ONE_TOL:g}, got sum {total!r}"
            )
        a = a.copy()
        a.setflags(write=False)
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
        rn = np.asarray(self.noma_rates, dtype=float)
        ro = np.asarray(self.oma_rates, dtype=float)
        if rn.ndim != 1 or ro.ndim != 1 or rn.size != ro.size:
            raise DimensionError("rate vectors must be 1-d and equal length")
        if not (np.all(np.isfinite(rn)) and np.all(np.isfinite(ro))):
            raise ValidationError("rates must be finite")
        if np.any(rn < 0.0) or np.any(ro < 0.0):
            raise ValidationError("rates must be nonnegative")
        for label, vec in (("noma", rn), ("oma", ro)):
            vec = vec.copy()
            vec.setflags(write=False)
            object.__setattr__(self, f"{label}_rates", vec)
            object.__setattr__(self, f"{label}_sum", float(vec.sum()))


def check_received_snr(rho, gains) -> None:
    """Raise unless every rho*g, for rho and g positive numbers or arrays, is
    finite and normal (at least MIN_RECEIVED_SNR). The extreme products bound
    them all; Python floats overflow to inf without numpy's RuntimeWarning."""
    lowest = float(np.min(rho)) * float(np.min(gains))
    highest = float(np.max(rho)) * float(np.max(gains))
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


def _row_sum_order(m: int) -> str:
    """Layout for products of m-user rows about to be summed along the row.
    numpy sums a contiguous row of 8 or more pairwise and a strided one term
    by term, so such rows are laid out C-contiguous, to be summed in one order
    whatever the inputs' layout. Shorter rows sum term by term in any layout
    and keep the inputs' own: the sampler's strided two-user view sums far
    faster than a C-contiguous copy of it."""
    return "C" if m >= 8 else "K"


def group_sum_rate(rho, alphas, gains, out=None, products=None):
    """SIC sum rate log2(1 + rho*sum_i a_i*g_i) along the last axis, without
    validation; the per-user rates of `sic_rates` telescope to it. Each row
    is summed in one order whatever the inputs' layout (`_row_sum_order`).

    The rates go into `out` if given. `products`, if given, is the scratch
    buffer for a_i*g_i: the broadcast shape, laid out as `_row_sum_order`
    says (with "K", as the gains), so a caller evaluating many points reuses
    one buffer and gets the same bits.
    """
    if products is None:
        products = np.multiply(alphas, gains, order=_row_sum_order(np.shape(gains)[-1]))
    else:
        np.multiply(alphas, gains, out=products)
    total = np.multiply(rho, np.sum(products, axis=-1, out=out), out=out)
    return log2_1p(total, out=out)


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
    return float(group_sum_rate(snr.rho, alloc.alphas, gains.gains))
