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
rho*g1 alone, and is evaluated as the closed form its products telescope
to; it pins only the weakest user to its floor and does not protect the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelGains,
    PowerAllocation,
    TransmitSnr,
    ValidationError,
    check_integer,
    check_positive,
    check_received_snr,
)

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

    def __post_init__(self):  # NaN and +-inf fail it too
        if not (0.0 < self.lower <= self.upper < 1.0):
            raise ValidationError(
                f"interval must satisfy 0 < lower <= upper < 1, "
                f"got [{self.lower!r}, {self.upper!r}]"
            )


def strong_share_bounds(snr: TransmitSnr, g1: float, g2: float) -> FeasibleInterval:
    """Feasible interval for the strong user's power fraction alpha_2.

    With A = sqrt(1+rho*g1) and B = sqrt(1+rho*g2), the interval is
    [A^2 / (A^2 + B), A / (A + 1)]. The upper end keeps the weak user at its
    orthogonal rate, the lower end the strong user at its own.
    The two ends coincide when g2 = g1. A lower end above the upper end
    beyond float noise raises InfeasibleIntervalError instead of clamping.
    The upper end is `optimal_two_user`'s strong share from `_resolved_shares`,
    with its errors: a rho*g1 so large (about 3.2e32 on) that it rounds to 1
    raises ValidationError, as does a rho*g that `check_received_snr` refuses.
    """
    g1, g2 = check_positive("g1", g1), check_positive("g2", g2)
    if g2 < g1:
        raise ValidationError(f"g2 must be >= g1, got g1={g1!r}, g2={g2!r}")
    check_received_snr(snr.rho, (g1, g2))
    x1 = snr.rho * g1
    x2 = snr.rho * g2
    upper = float(_resolved_shares(x1, recursive_shares(x1, 2))[1])
    lower = (1.0 + x1) / (1.0 + x1 + math.sqrt(1.0 + x2))
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


def m_user_shares(x, m: int, out=None) -> np.ndarray:
    """Recursive m-user power fractions at weak-user received SNR x = rho*g1.

    The split pins only user 1 to its orthogonal rate; the stronger users,
    sized from g1 alone, can land below theirs (`protected_m_user` keeps
    every user at its orthogonal rate).

    Folding user k onto the group scales every earlier fraction by
    r_k / r_{k-1}, with r_k = (1+x)^(1/k) - 1 = expm1(log1p(x)/k) and r_1 = x,
    so the products telescope to alpha_1 = r_m / r_1 and
    alpha_i = r_m / r_i - r_m / r_{i-1}, which sum to r_m / r_m = 1. At
    m = 2, alpha_1 = (sqrt(1+x) - 1)/x, the weak share of `optimal_two_user`.
    Elementwise over x, which must pass `check_received_snr` as rho*g;
    output shape is x.shape + (m,), weakest user first: the view of a
    C-contiguous (m,) + x.shape array, users leading, so each user's shares
    are contiguous. With `out`, a float (m,) + x.shape buffer in any layout
    (x may be its row 0), the shares are written into it and its view is
    returned, so a caller evaluating many points reuses one buffer.
    """
    m = check_integer("group size m", m, 2)
    x = np.asarray(x, dtype=float)
    check_received_snr(x, 1.0)  # x is rho*g1 already; an empty x passes
    shape = (m,) + x.shape
    if out is not None and not (
        isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
    ):
        raise ValidationError(f"out must be a float array of shape {shape}")
    return recursive_shares(x, m, out)


def recursive_shares(x, m: int, out=None) -> np.ndarray:
    """`m_user_shares` without its checks, for callers that have made them:
    every x = rho*g1 passes `check_received_snr`, m is an int >= 2, and `out`
    is None or a float (m,) + x.shape buffer."""
    x = np.asarray(x, dtype=float)
    # users on a leading axis keep numpy's inner loops long, over x
    r = np.empty((m,) + x.shape) if out is None else out
    # r_m in row 0 and r_i in row i, so that no step makes numpy copy a row
    r[1, ...] = x  # not expm1(log1p(x)), which can be an ulp off x
    # from x, not row 1: for a source partly overlapping its output, as rows
    # interleaved in `out` are, numpy leaves its SIMD log1p for libm's bits
    np.log1p(x, out=r[0, ...])
    np.divide(r[0], np.arange(2.0, m).reshape((-1,) + (1,) * x.ndim), out=r[2:])
    np.divide(r[0], m, out=r[0, ...])
    np.expm1(r[2:], out=r[2:])
    np.expm1(r[0], out=r[0, ...])
    np.divide(r[0], r[1:], out=r[1:])  # q_i = r_m / r_i, in place
    r[0, ...] = r[1]  # alpha_1 = q_1
    np.subtract(r[2:], r[1:-1], out=r[1:-1])  # alpha_i = q_i - q_{i-1}
    np.subtract(1.0, r[-1], out=r[-1, ...])  # not r_m / r_m, 0/0 where r_m underflows
    return r.transpose(tuple(range(1, r.ndim)) + (0,))


def _resolved_shares(x: float, shares: np.ndarray) -> np.ndarray:
    """The m shares at one x = rho*g1, or ValidationError where the strongest
    rounds to 1: from x of about 3.2e32 at m = 2, 3.4e97 at m = 3 and
    1.2e195 at m = 4 (never below float max for m >= 5)."""
    if shares[-1] >= 1.0:
        raise ValidationError(
            f"rho*g1 of {x:g} puts the weaker shares of a {len(shares)}-user split "
            "below float resolution"
        )
    return shares


def optimal_m_user(snr: TransmitSnr, g1: float, m: int) -> PowerAllocation:
    """Recursive m-user split, weakest user first, as `_resolved_shares`
    gives it or refuses it. The whole vector depends only on rho*g1, and only
    the weakest user is held at its orthogonal rate (see `protected_m_user`).
    """
    x = snr.rho * check_positive("g1", g1)
    return PowerAllocation(_resolved_shares(x, m_user_shares(x, m)))


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
    check_received_snr(snr.rho, gains.gains)
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
