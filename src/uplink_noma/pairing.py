"""User pairing over an even group: policies, evaluation, enumeration.

A pairing policy splits 2K ascending-sorted users into K pairs, each pair
running two-user NOMA on its own orthogonal resource with the optimal
power split. The near-far policy pairs the weakest remaining user with the
strongest remaining one; enumeration over all perfect matchings serves as
the optimality oracle. `matching_array` builds every matching at once as one
zero-based index array, and `enumerate_matchings` yields the same matchings
as policies. Every matching is scored by one array kernel, `matching_rates`,
which rates each pair once and gathers from that table.
"""

from __future__ import annotations

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
    (P, n_users/2, 2) array for `matching_rates`, P = (n_users - 1)!!, each
    pair weaker user first. Rows are in recursive order: user 0 takes each
    partner in turn, and each is followed by the block over the users left.
    n_users is capped at MAX_ENUMERATION_USERS.
    """
    if not (isinstance(n_users, (int, np.integer)) and n_users >= 2):
        raise ValidationError(f"n_users must be an integer >= 2, got {n_users!r}")
    if n_users % 2:
        raise ValidationError(f"n_users must be even, got {n_users}")
    if n_users > MAX_ENUMERATION_USERS:
        raise ValidationError(
            f"enumeration is capped at {MAX_ENUMERATION_USERS} users, got {n_users}"
        )
    match = np.zeros((1, 0, 2), dtype=np.intp)  # the one matching of no users
    for n in range(2, int(n_users) + 1, 2):
        # row k: the users left, ascending, once user 0 takes partner k + 1
        left = np.arange(1, n - 1) + (np.arange(n - 2) >= np.arange(n - 1)[:, None])
        head = np.zeros((n - 1, len(match), 1, 2), dtype=np.intp)
        head[..., 1] = np.arange(1, n)[:, None, None]
        match = np.concatenate((head, left[:, match]), axis=2).reshape(-1, n // 2, 2)
    return match


def enumerate_matchings(n_users: int) -> Iterator[PairingPolicy]:
    """Yield every perfect matching of users 1..n_users, in `matching_array`
    order. The matchings are valid by construction, so each policy is built
    from a shared table of (i, j) tuples without rerunning the validation.
    """
    match = matching_array(n_users)
    n = int(n_users)
    pair = [(u // n + 1, u % n + 1) for u in range(n * n)]  # pair[i*n + j] is (i+1, j+1)
    pairs = map(pair.__getitem__, (match[..., 0] * n + match[..., 1]).ravel().tolist())
    for row in zip(*[pairs] * (n // 2)):  # K pairs at a time
        policy = object.__new__(PairingPolicy)
        object.__setattr__(policy, "pairs", row)
        yield policy


def matching_rates(rho, gains, pairs):
    """Per-user NOMA rates (..., P, n), in gain order, of P matchings of the
    n users along the last axis of `gains`, without validation.

    `pairs` is a zero-based (P, K, 2) index array, weaker user first, and
    `rho` broadcasts against the leading axes of `gains`. Each pair used by
    any matching is rated once as its own `optimal_two_user` system (one
    `m_user_shares` and one `sic_rates` call) into a table R[..., u, v], the
    rate of user u paired with v; each matching gathers from it by partner.
    """
    rho = np.asarray(rho, dtype=float)[..., None]
    n = gains.shape[-1]
    used = np.zeros((n, n), dtype=bool)
    used[pairs[..., 0], pairs[..., 1]] = True
    weak, strong = np.nonzero(used)
    g = np.stack((gains[..., weak], gains[..., strong]), axis=-1)
    rates = sic_rates(rho[..., None], m_user_shares(rho * g[..., 0], 2), g)
    table = np.zeros(rates.shape[:-2] + (n, n))
    table[..., weak, strong], table[..., strong, weak] = rates[..., 0], rates[..., 1]
    partner = np.empty((len(pairs), n), dtype=int)  # partner[p, u]: u's partner in matching p
    rows = np.arange(len(pairs))[:, None]
    partner[rows, pairs[..., 0]], partner[rows, pairs[..., 1]] = pairs[..., 1], pairs[..., 0]
    return table[..., np.arange(n), partner]


def pair_indices(policies) -> np.ndarray:
    """Zero-based (P, K, 2) pair array of the policies, for `matching_rates`."""
    return np.array([policy.pairs for policy in policies]) - 1


def pairing_sum_rate(gains: ChannelGains, policy: PairingPolicy, snr: TransmitSnr) -> RateReport:
    """Rates of a paired network, each pair optimally power loaded.

    Every pair is an isolated two-user NOMA system on its own resource with
    the `optimal_two_user` split (`matching_rates` with one matching). The
    OMA baseline gives each user half of its pair's resource.
    """
    check_received_snr(snr.rho, gains.gains)
    if policy.n_users != gains.m:
        raise DimensionError(
            f"policy covers {policy.n_users} users but {gains.m} gains given"
        )
    noma = matching_rates(snr.rho, gains.gains, pair_indices([policy]))[0]
    oma = log2_1p(snr.rho * gains.gains) / 2
    return RateReport(noma, oma, float(noma.sum()), float(oma.sum()))


# the three ways to pair four ascending users
FOUR_USER_POLICIES = (
    PairingPolicy(((1, 2), (3, 4))),  # case1: adjacent
    PairingPolicy(((1, 3), (2, 4))),  # case2: interleaved
    PairingPolicy(((1, 4), (2, 3))),  # case3: near-far
)
FOUR_USER_PAIRS = pair_indices(FOUR_USER_POLICIES)


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
    sums = matching_rates(snr.rho, gains.gains, FOUR_USER_PAIRS).sum(axis=-1)
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
    sums = matching_rates(grid, gains.gains, FOUR_USER_PAIRS).sum(axis=-1)
    gaps = sums[:, 1] - sums[:, 0]
    nondecreasing = bool(np.all(np.diff(gaps) >= -GAP_STEP_TOL))
    limit = math.log2(gains.gains[2] / gains.gains[1])
    return CaseGapReport(grid, gaps, nondecreasing, limit)
