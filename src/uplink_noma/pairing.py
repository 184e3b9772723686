"""User pairing over an even group: policies, evaluation, enumeration.

A pairing policy splits 2K ascending-sorted users into K pairs, each pair
running two-user NOMA on its own orthogonal resource with the optimal
power split. The near-far policy pairs the weakest remaining user with the
strongest remaining one; enumeration over all perfect matchings serves as
the optimality oracle. Every matching is scored by one array kernel,
`matching_rates`, which rates each pair once and gathers from that table.
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

OMA_BASELINES = ("pair", "network")


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


def _matchings(remaining: tuple) -> Iterator[tuple]:
    if not remaining:
        yield ()
        return
    first = remaining[0]
    for idx in range(1, len(remaining)):
        partner = remaining[idx]
        rest = remaining[1:idx] + remaining[idx + 1 :]
        for tail in _matchings(rest):
            yield ((first, partner),) + tail


def enumerate_matchings(n_users: int) -> Iterator[PairingPolicy]:
    """Yield every perfect matching of users 1..n_users.

    There are (n_users - 1)!! of them, so n_users is capped at
    MAX_ENUMERATION_USERS.
    """
    if not (isinstance(n_users, (int, np.integer)) and n_users >= 2):
        raise ValidationError(f"n_users must be an integer >= 2, got {n_users!r}")
    n_users = int(n_users)
    if n_users % 2:
        raise ValidationError(f"n_users must be even, got {n_users}")
    if n_users > MAX_ENUMERATION_USERS:
        raise ValidationError(
            f"enumeration is capped at {MAX_ENUMERATION_USERS} users, got {n_users}"
        )
    for pairs in _matchings(tuple(range(1, n_users + 1))):
        yield PairingPolicy(pairs)


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


def pairing_sum_rate(
    gains: ChannelGains,
    policy: PairingPolicy,
    snr: TransmitSnr,
    oma_baseline: str = "pair",
) -> RateReport:
    """Rates of a paired network, each pair optimally power loaded.

    Every pair is an isolated two-user NOMA system on its own resource with
    the `optimal_two_user` split (`matching_rates` with one matching). The
    OMA baseline either halves each pair's resource ("pair", default) or
    gives every user a 1/(2K) share of the whole band ("network").
    """
    check_received_snr(snr, gains)
    if oma_baseline not in OMA_BASELINES:
        raise ValidationError(
            f"oma_baseline must be one of {OMA_BASELINES}, got {oma_baseline!r}"
        )
    if policy.n_users != gains.m:
        raise DimensionError(
            f"policy covers {policy.n_users} users but {gains.m} gains given"
        )
    noma = matching_rates(snr.rho, gains.gains, pair_indices([policy]))[0]
    oma = log2_1p(snr.rho * gains.gains) / (2 if oma_baseline == "pair" else gains.m)
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
    sums = matching_rates(grid, gains.gains, FOUR_USER_PAIRS).sum(axis=-1)
    gaps = sums[:, 1] - sums[:, 0]
    nondecreasing = bool(np.all(np.diff(gaps) >= -GAP_STEP_TOL))
    limit = math.log2(gains.gains[2] / gains.gains[1])
    return CaseGapReport(grid, gaps, nondecreasing, limit)
