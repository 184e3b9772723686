"""Near-far pairing certified optimal beyond the enumeration cap.

A pairing's NOMA sum rate is a sum of per-pair terms, so the best pairing of
n users is a maximum-weight perfect matching on the complete graph whose
edge weights are the pair sums. Edmonds' blossom algorithm (networkx) finds
it in polynomial time without enumerating matchings and without knowing the
near-far rule, which makes it an independent oracle for n far above
`MAX_ENUMERATION_USERS`. A subset dynamic program over the same weights is
a second optimum up to 20 users, where its 2^n table still fits. Weights are
compared, not pairs, because equal gains tie.
"""

import networkx as nx
import numpy as np
import pytest

from uplink_noma import (
    ChannelGains,
    TransmitSnr,
    matching_array,
    matching_sums,
    near_far_policy,
    pairing_sum_rate,
)
from uplink_noma.pairing import MAX_ENUMERATION_USERS


def _pair_sums(rho, gains):
    """Pair-sum table from the optimal two-user closed form, never through the
    rate kernels: weak x1 = rho*g_i and strong x2 = rho*g_j (g_i <= g_j) give
    the weak user the share (s - 1)/x1, s = sqrt(1 + x1), so the pair's sum
    rate is log2(1 + (s - 1) + (1 - (s - 1)/x1) x2)."""
    x = rho * gains
    weak, strong = np.minimum.outer(x, x), np.maximum.outer(x, x)
    s_minus_1 = np.expm1(0.5 * np.log1p(weak))
    return np.log2(1.0 + s_minus_1 + (1.0 - s_minus_1 / weak) * strong)


def _blossom_optimum(table):
    graph = nx.Graph()
    n = len(table)
    graph.add_weighted_edges_from(
        (i, j, table[i, j]) for i in range(n) for j in range(i + 1, n)
    )
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    assert len(matching) == n // 2
    return sum(table[i, j] for i, j in matching)


def _subset_dp_optimum(table):
    """Best matching weight by a subset DP: f[mask] is the best, over the
    partner j of the lowest user lo in mask, of w[lo, j] + f[mask - {lo, j}],
    filled one popcount layer at a time. While a layer is filled its own
    entries are still -inf, so a j outside the mask adds nothing."""
    n = len(table)
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)
    f = np.full(1 << n, -np.inf)
    f[0] = 0.0
    for size in range(2, n + 1, 2):
        mask = masks[sizes == size]
        low = mask & -mask
        lo, rest = np.bitwise_count(low - 1), mask ^ low
        best = np.full(len(mask), -np.inf)
        for j in range(1, n):
            np.maximum(best, table[lo, j] + f[rest ^ (1 << j)], out=best)
        f[mask] = best
    return f[-1]


def _draw(n, seed):
    return np.sort(np.random.default_rng([n, seed]).standard_exponential(n))


CASES = [(n, snr_db) for n in (14, 16, 20, 24, 32) for snr_db in (-10.0, 10.0, 30.0)]
CASES.append((64, 10.0))


@pytest.mark.parametrize("n, snr_db", CASES)
def test_near_far_sum_is_the_max_weight_matching(n, snr_db):
    assert n > MAX_ENUMERATION_USERS
    gains = _draw(n, 0)
    rho = TransmitSnr.from_db(snr_db).rho
    table = _pair_sums(rho, gains)
    best = _blossom_optimum(table)
    near_far = sum(table[i, n - 1 - i] for i in range(n // 2))
    assert near_far == pytest.approx(best, rel=1e-12, abs=0.0)
    # the library's near-far sum rate reaches the same optimum
    report = pairing_sum_rate(ChannelGains(gains), near_far_policy(n // 2), TransmitSnr(rho))
    assert report.noma_sum == pytest.approx(best, rel=1e-12, abs=0.0)


def test_blossom_finds_a_better_pairing_than_adjacent_pairs():
    # the oracle is not blind: adjacent pairing scores strictly below it
    gains = _draw(16, 1)
    table = _pair_sums(TransmitSnr.from_db(10.0).rho, gains)
    adjacent = sum(table[i, i + 1] for i in range(0, 16, 2))
    assert adjacent < _blossom_optimum(table) * (1 - 1e-6)


@pytest.mark.parametrize("n", range(2, MAX_ENUMERATION_USERS + 1, 2))
def test_subset_dp_is_the_enumerations_best(n):
    gains = _draw(n, 0)
    rho = TransmitSnr.from_db(10.0).rho
    best = matching_sums(rho, gains, matching_array(n)).max()
    assert _subset_dp_optimum(_pair_sums(rho, gains)) == pytest.approx(best, rel=1e-12, abs=0.0)


# n = 20 alone takes about 0.25 s: the table has 2^20 entries
DP_CASES = [(n, snr_db) for n in (14, 16, 18) for snr_db in (-10.0, 10.0, 30.0)] + [(20, 10.0)]


@pytest.mark.parametrize("n, snr_db", DP_CASES)
def test_near_far_sum_is_the_subset_dp_optimum(n, snr_db):
    assert n > MAX_ENUMERATION_USERS
    table = _pair_sums(TransmitSnr.from_db(snr_db).rho, _draw(n, 0))
    near_far = sum(table[i, n - 1 - i] for i in range(n // 2))
    assert near_far == pytest.approx(_subset_dp_optimum(table), rel=1e-12, abs=0.0)
