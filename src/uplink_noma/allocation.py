"""Closed-form power allocation for uplink NOMA groups.

A group of users shares one transmit power budget (sum of fractions is 1)
and the allocations here maximize the NOMA sum rate subject to
orthogonal-access rate floors. For two users the optimum puts the strong
user exactly at the weak user's rate-protection boundary, and the weak
user's fraction depends only on the product rho*g1; both users keep their
orthogonal rates. For larger groups `protected_m_user` is the optimum under
every user's floor: it holds users 1..M-1 exactly at their floors and gives
the strongest user the rest. The recursion in `m_user_shares` and
`optimal_m_user` folds one user at a time onto the two-user split using
rho*g1 alone; it pins only the weakest user to its floor and does not
protect the others.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SUM_TO_ONE_TOL,
    ChannelGains,
    PowerAllocation,
    TransmitSnr,
    ValidationError,
)

logger = logging.getLogger(__name__)

# slack for float ties between the interval ends when g2 is at or near g1
BOUND_TIE_TOL = 1e-12


class InfeasibleIntervalError(Exception):
    """No power split satisfies every user's rate-protection floor."""


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval of strong-user fractions keeping both users at or
    above their orthogonal-access rates."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError("interval ends must be finite")
        if not (0.0 < self.lower <= self.upper < 1.0):
            raise ValidationError(
                f"interval must satisfy 0 < lower <= upper < 1, "
                f"got [{self.lower!r}, {self.upper!r}]"
            )


def _check_gain(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def weak_user_share(x):
    """Weak-user power fraction (sqrt(1+x) - 1)/x at received SNR x = rho*g1.

    This is the fraction left to the weak user at the two-user optimum.
    Works elementwise on arrays; scalars in, scalar out.
    """
    x = np.asarray(x, dtype=float)
    out = np.expm1(0.5 * np.log1p(x)) / x
    return float(out) if out.ndim == 0 else out


def strong_share_bounds(snr: TransmitSnr, g1: float, g2: float) -> FeasibleInterval:
    """Feasible interval for the strong user's power fraction alpha_2.

    The upper end keeps the weak user at its orthogonal rate,
        sqrt(1+rho*g1) * (sqrt(1+rho*g1) - 1) / (rho*g1),
    the lower end keeps the strong user at its orthogonal rate,
        (1+rho*g1) * (sqrt(1+rho*g2) - 1)
            / (rho*g2 + rho*g1 * (sqrt(1+rho*g2) - 1)).
    The two ends coincide when g2 = g1. A lower end above the upper end
    beyond float noise raises InfeasibleIntervalError instead of clamping.
    """
    g1 = _check_gain("g1", g1)
    g2 = _check_gain("g2", g2)
    if g2 < g1:
        raise ValidationError(f"g2 must be >= g1, got g1={g1!r}, g2={g2!r}")
    x1 = snr.rho * g1
    x2 = snr.rho * g2
    s1 = math.expm1(0.5 * math.log1p(x1))  # sqrt(1+x1) - 1
    s2 = math.expm1(0.5 * math.log1p(x2))  # sqrt(1+x2) - 1
    upper = (1.0 + s1) * s1 / x1
    lower = (1.0 + x1) * s2 / (x2 + x1 * s2)
    if lower > upper:
        if lower - upper > BOUND_TIE_TOL:
            raise InfeasibleIntervalError(
                f"no feasible strong-user fraction: lower {lower!r} exceeds "
                f"upper {upper!r} at rho={snr.rho!r}, g1={g1!r}, g2={g2!r}"
            )
        lower = upper
    return FeasibleInterval(lower, upper)


def optimal_two_user(snr: TransmitSnr, g1: float) -> PowerAllocation:
    """Sum-rate optimal two-user split (weak fraction, strong fraction).

    The optimum sits at the top of the feasible interval, so it depends
    only on the weak user's received SNR rho*g1:
        alpha_1 = (sqrt(1+rho*g1) - 1) / (rho*g1),  alpha_2 = 1 - alpha_1.
    It is the base case of the recursive m-user split.
    """
    return optimal_m_user(snr, g1, 2)


def downlink_two_user(snr: TransmitSnr, g1: float) -> PowerAllocation:
    """Downlink counterpart of the two-user optimum.

    In the downlink the weak user takes the large fraction and the strong
    user the small one; the pair is exactly the uplink split swapped.
    """
    uplink = optimal_two_user(snr, g1)
    return PowerAllocation(uplink.alphas[::-1].copy())


def m_user_shares(x, m: int) -> np.ndarray:
    """Recursive m-user power fractions at weak-user received SNR x = rho*g1.

    The split is sum-rate optimal only under the weakest user's floor: it
    pins user 1 to its orthogonal rate, but the stronger users, sized from
    g1 alone, can land below theirs. `protected_m_user` keeps every user at
    its orthogonal rate.

    Folds users onto the group one at a time: for group size k the newest
    (strongest) user takes
        a_k = ((1 + rho*a1*g1) - (1+rho*g1)^(1/k)) / (rho*a1*g1)
    and all earlier fractions scale by (1 - a_k). The numerator is
    evaluated as rho*a1*g1 - ((1+rho*g1)^(1/k) - 1) with expm1/log1p to
    avoid cancellation at 1. Elementwise over x; output shape is
    x.shape + (m,), weakest user first. For m >= 3 a rho*g1 of about 2.1e96
    or more rounds a_3 to 1 and the earlier fractions to 0, so it raises
    ValidationError instead.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise ValidationError(f"group size m must be an integer >= 2, got {m!r}")
    m = int(m)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValidationError("rho*g1 must be positive and finite")
    shape = x.shape
    xf = np.atleast_1d(x).astype(float).ravel()
    shares = np.empty((xf.size, m))
    w = weak_user_share(xf)
    shares[:, 0] = w
    shares[:, 1] = 1.0 - w
    for k in range(3, m + 1):
        s = xf * shares[:, 0]  # rho * a1 * g1 for the current group
        root_minus_1 = np.expm1(np.log1p(xf) / k)  # (1+rho*g1)^(1/k) - 1
        a_new = (s - root_minus_1) / s
        if np.any(a_new >= 1.0):  # would zero every earlier share
            raise ValidationError(
                f"rho*g1 of {xf.max():g} is past the {m}-user recursion's limit of about 2.1e96"
            )
        shares[:, : k - 1] *= (1.0 - a_new)[:, None]
        shares[:, k - 1] = a_new
    totals = shares.sum(axis=1)
    off = np.abs(totals - 1.0) > SUM_TO_ONE_TOL
    if off.any():
        logger.warning(
            "renormalizing %d of %d share vectors, worst |sum-1| = %.3e",
            int(off.sum()),
            xf.size,
            float(np.abs(totals - 1.0).max()),
        )
        shares[off] /= totals[off, None]
    return shares.reshape(shape + (m,))


def optimal_m_user(snr: TransmitSnr, g1: float, m: int) -> PowerAllocation:
    """Recursive m-user split from `m_user_shares`, weakest user first.

    Like the two-user case the whole vector depends only on rho*g1; the
    weak user's fraction comes out as ((1+rho*g1)^(1/m) - 1)/(rho*g1).
    Only the weakest user is held at its orthogonal rate; for a split that
    protects every user, see `protected_m_user`.
    """
    g1 = _check_gain("g1", g1)
    return PowerAllocation(m_user_shares(snr.rho * g1, m))


def protected_m_user(snr: TransmitSnr, gains: ChannelGains) -> PowerAllocation:
    """Sum-rate optimal M-user split with every user at its orthogonal rate.

    Each floor R_i >= log2(1 + rho*g_i)/M is linear in the fractions, and
    the sum rate grows with sum_i alpha_i*g_i, so the optimum holds users
    1..M-1 exactly at their floors and gives user M the rest. With
    P_i = prod_{j<=i} (1 + rho*g_j)^(1/M) that is
        alpha_i = P_{i-1} * ((1 + rho*g_i)^(1/M) - 1) / (rho*g_i),  i < M,
        alpha_M = 1 - sum_{i<M} alpha_i.
    alpha_1 equals the recursion's weak share, and at M = 2 the split is
    `optimal_two_user`. An alpha_M below user M's own floor beyond
    BOUND_TIE_TOL raises InfeasibleIntervalError; equal gains put it
    exactly on the floor.
    """
    m = gains.m
    # gains ascend, so the end products bound every rho*g_i; Python floats
    # overflow to inf without the RuntimeWarning numpy would emit
    lowest, highest = snr.rho * float(gains.gains[0]), snr.rho * float(gains.gains[-1])
    if not (lowest > 0.0 and math.isfinite(highest)):
        raise ValidationError("rho*g must be positive and finite")
    x = snr.rho * gains.gains
    root_log = np.log1p(x) / m  # log of (1 + rho*g_i)^(1/M)
    prefix = np.exp(np.concatenate(([0.0], np.cumsum(root_log[:-1]))))  # P_{i-1}
    held = prefix * np.expm1(root_log) / x  # each user exactly at its floor
    a_last = 1.0 - float(held[:-1].sum())
    floor_last = float(held[-1])
    if floor_last - a_last > BOUND_TIE_TOL:
        raise InfeasibleIntervalError(
            f"strongest user's fraction {a_last!r} is below its floor "
            f"{floor_last!r} at rho={snr.rho!r}, M={m}"
        )
    return PowerAllocation(np.append(held[:-1], a_last))
