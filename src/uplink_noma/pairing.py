"""User pairing over an even group: policies, evaluation, enumeration.

A pairing policy splits 2K ascending-sorted users into K pairs, each pair
running two-user NOMA on its own orthogonal resource with the optimal
power split. The near-far policy pairs the weakest remaining user with the
strongest remaining one; enumeration over all perfect matchings serves as
the optimality oracle. `matching_array` builds every matching at once as one
zero-based, read-only index array, once per process for each size, and
`enumerate_matchings` yields the same matchings as policies. Pairs are rated
by one array kernel, `pair_rates`: a policy's own K pairs, or all n(n-1)/2
once for `matching_sums`, which adds each matching's K pair sums in pair order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import (
    ChannelGains,
    DimensionError,
    RateReport,
    TransmitSnr,
    ValidationError,
    check_received_snr,
    log2_1p,
    sic_rates,
)
from .allocation import m_user_shares

# enumeration grows as (n-1)!!, 10395 matchings at the 12-user cap
MAX_ENUMERATION_USERS = 12

# per-step slack when judging the case2 - case1 gap nondecreasing
GAP_STEP_TOL = 1e-9


@dataclass(frozen=True)
class PairingPolicy:
    """Perfect matching of users 1..2K into pairs (i, j) with i < j."""

    pairs: tuple

    def __post_init__(self):
        try:
            pairs = tuple(tuple(int(v) for v in p) for p in self.pairs)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"pairs must be index pairs, got {self.pairs!r}") from exc
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ValidationError("policy needs at least one (i, j) pair")
        for i, j in pairs:
            if i >= j:
                raise ValidationError(f"pair indices must satisfy i < j, got ({i}, {j})")
        flat = [v for p in pairs for v in p]
        n = 2 * len(pairs)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValidationError(f"pairs must cover users 1..{n} exactly once")
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    @property
    def n_users(self) -> int:
        return 2 * len(self.pairs)

    def __str__(self) -> str:
        return ",".join(f"({i},{j})" for i, j in self.pairs)


def near_far_policy(k: int) -> PairingPolicy:
    """Pair weakest with strongest, then inward: (1,2K), (2,2K-1), ..."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValidationError(f"pair count k must be an integer >= 1, got {k!r}")
    k = int(k)
    return PairingPolicy(tuple((i, 2 * k + 1 - i) for i in range(1, k + 1)))


def matching_array(n_users: int) -> np.ndarray:
    """Every perfect matching of users 0..n_users-1 as one zero-based
    (P, n_users/2, 2) array for `matching_sums`, P = (n_users - 1)!!, each
    pair weaker user first. Rows are in recursive order: user 0 takes each
    partner in turn, each followed by the block over the users left, so the
    last row is near-far. n_users is capped at MAX_ENUMERATION_USERS. The
    array is built once per process for each n_users and returned read-only,
    the same object on every call; the argument is checked on every call.
    """
    if not (isinstance(n_users, (int, np.integer)) and n_users >= 2):
        raise ValidationError(f"n_users must be an integer >= 2, got {n_users!r}")
    if n_users % 2:
        raise ValidationError(f"n_users must be even, got {n_users}")
    if n_users > MAX_ENUMERATION_USERS:
        raise ValidationError(
            f"enumeration is capped at {MAX_ENUMERATION_USERS} users, got {n_users}"
        )
    return _matching_table(int(n_users))


@functools.cache  # keyed by a checked Python int: at most 6 tables, 1 MB at n = 12
def _matching_table(n_users: int) -> np.ndarray:
    match = np.zeros((1, 0, 2), dtype=np.intp)  # the one matching of no users
    for n in range(2, n_users + 1, 2):
        # row k: the users left, ascending, once user 0 takes partner k + 1
        left = np.arange(1, n - 1) + (np.arange(n - 2) >= np.arange(n - 1)[:, None])
        head = np.zeros((n - 1, len(match), 1, 2), dtype=np.intp)
        head[..., 1] = np.arange(1, n)[:, None, None]
        match = np.concatenate((head, left[:, match]), axis=2).reshape(-1, n // 2, 2)
    match.setflags(write=False)
    return match


def enumerate_matchings(n_users: int) -> Iterator[PairingPolicy]:
    """Yield every perfect matching of users 1..n_users, in `matching_array`
    order. The matchings are valid by construction, so each policy is built
    from a shared table of (i, j) tuples without rerunning the validation.
    """
    match = matching_array(n_users)
    n = int(n_users)
    pair = np.empty(n * n, dtype=object)  # pair[i*n + j] is (i+1, j+1)
    pair[:] = [(u // n + 1, u % n + 1) for u in range(n * n)]
    pairs = iter(pair[match[..., 0] * n + match[..., 1]].ravel().tolist())
    new, put = object.__new__, object.__setattr__
    for row in zip(*[pairs] * (n // 2)):  # K pairs at a time
        policy = new(PairingPolicy)
        put(policy, "pairs", row)
        yield policy


def pair_rates(rho, gains, out=None):
    """Per-user rates (..., 2) of two-user NOMA systems at the
    `optimal_two_user` split (the one use of `m_user_shares(., 2)` with
    `sic_rates`), without validation. `gains` is (..., 2), weaker user first;
    `rho` broadcasts against gains[..., 0]. `out`, a float buffer of the
    broadcast shape in any layout, takes rho*g_weak, then the shares, then
    the rates, and is returned; without it, the rates go into a new
    Fortran-ordered array, users leading in memory.
    """
    rho = np.asarray(rho, dtype=float)[..., None]
    if out is None:
        out = np.empty(np.broadcast_shapes(rho.shape, gains.shape), order="F")
    np.multiply(rho[..., 0], gains[..., 0], out=out[..., 0])
    m_user_shares(out[..., 0], 2, out=np.moveaxis(out, -1, 0))
    return sic_rates(rho, out, gains, out=out)


def matching_sums(rho, gains, pairs):
    """NOMA sum rates (..., P) of P matchings of the n users along the last
    axis of `gains`, without validation.

    `pairs` is a zero-based (P, K, 2) index array, weaker user first, and
    `rho` broadcasts against the leading axes of `gains`. Each of the
    n(n-1)/2 pairs is rated once (`pair_rates`) into a table of pair sums;
    a matching adds its K pair sums in pair order, so equal gains tie exactly.
    """
    n = gains.shape[-1]
    every = np.transpose(np.triu_indices(n, 1))  # (n(n-1)/2, 2), weaker user first
    rates = pair_rates(np.asarray(rho, dtype=float)[..., None], gains[..., every])
    table = rates[..., 0] + rates[..., 1]  # pair sums, in `every` order
    weak, strong = pairs[..., 0], pairs[..., 1]
    slot = weak * (2 * n - 3 - weak) // 2 + strong - 1  # (P, K) rows of `every`
    sums = table[..., slot[:, 0]]
    for k in range(1, slot.shape[1]):
        sums += table[..., slot[:, k]]
    return sums


def pair_indices(policies) -> np.ndarray:
    """Zero-based (P, K, 2) pair array of the policies, for `matching_sums`."""
    return np.array([policy.pairs for policy in policies]) - 1


def pairing_sum_rate(gains: ChannelGains, policy: PairingPolicy, snr: TransmitSnr) -> RateReport:
    """Rates of a paired network, each pair optimally power loaded.

    Every pair is an isolated two-user NOMA system on its own resource with
    the `optimal_two_user` split (`pair_rates` on the policy's K pairs, in
    gain order). The OMA baseline gives each user half of its pair's resource.
    """
    check_received_snr(snr.rho, gains.gains)
    if policy.n_users != gains.m:
        raise DimensionError(
            f"policy covers {policy.n_users} users but {gains.m} gains given"
        )
    pairs = pair_indices([policy])[0]
    noma = np.empty(gains.m)
    noma[pairs] = pair_rates(snr.rho, gains.gains[pairs])
    oma = log2_1p(snr.rho * gains.gains) / 2
    return RateReport(noma, oma)


# the three ways to pair four ascending users, in `matching_array` row order:
# case1 adjacent (1,2),(3,4); case2 interleaved (1,3),(2,4); case3 near-far (1,4),(2,3)
FOUR_USER_PAIRS = matching_array(4)


@dataclass(frozen=True)
class FourUserCases:
    """NOMA sum rates of the three four-user pairings."""

    case1: float  # adjacent pairing (1,2),(3,4)
    case2: float  # interleaved pairing (1,3),(2,4)
    case3: float  # near-far pairing (1,4),(2,3)


def four_user_cases(gains: ChannelGains, snr: TransmitSnr) -> FourUserCases:
    """Sum rates of all three pairings of a four-user group."""
    if gains.m != 4:
        raise DimensionError(f"four_user_cases needs exactly 4 gains, got {gains.m}")
    check_received_snr(snr.rho, gains.gains)
    sums = matching_sums(snr.rho, gains.gains, FOUR_USER_PAIRS)
    return FourUserCases(*sums.tolist())


@dataclass(frozen=True, eq=False)
class CaseGapReport:
    """How the case2 - case1 sum-rate gap behaves over an SNR grid."""

    rho_grid: np.ndarray
    gaps: np.ndarray
    nondecreasing: bool
    high_snr_limit: float  # log2(g3/g2), the gap's large-rho value

    def __post_init__(self):
        for name in ("rho_grid", "gaps"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def case_gap_monotonicity(gains: ChannelGains, rho_grid: Sequence[float]) -> CaseGapReport:
    """Track the case2 - case1 gap over ascending SNRs.

    The gap vanishes as rho -> 0 and approaches log2(g3/g2) as
    rho -> infinity; the report flags whether it is nondecreasing across
    the grid within GAP_STEP_TOL per step.
    """
    if gains.m != 4:
        raise DimensionError(f"case_gap_monotonicity needs exactly 4 gains, got {gains.m}")
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("rho_grid must be a 1-d vector of length >= 2")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ValidationError("rho_grid values must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("rho_grid must be strictly ascending")
    check_received_snr(grid, gains.gains)
    sums = matching_sums(grid, gains.gains, FOUR_USER_PAIRS)
    gaps = sums[:, 1] - sums[:, 0]
    nondecreasing = bool(np.all(np.diff(gaps) >= -GAP_STEP_TOL))
    limit = math.log2(gains.gains[2] / gains.gains[1])
    return CaseGapReport(grid, gaps, nondecreasing, limit)
