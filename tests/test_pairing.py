"""Pairing tests: policies, enumeration oracle, case ordering, gap limits."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplink_noma import (
    ChannelGains,
    DimensionError,
    PairingPolicy,
    TransmitSnr,
    ValidationError,
    case_gap_monotonicity,
    enumerate_matchings,
    four_user_cases,
    matching_array,
    matching_rates,
    near_far_policy,
    noma_rates,
    noma_sum_rate,
    oma_rates,
    optimal_two_user,
    pair_indices,
    pairing_sum_rate,
)

SNR10 = TransmitSnr(10.0)
GAINS4 = ChannelGains(np.array([0.3, 0.8, 2.0, 5.0]))


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestPolicy:
    def test_near_far_shapes(self):
        assert near_far_policy(1).pairs == ((1, 2),)
        assert near_far_policy(2).pairs == ((1, 4), (2, 3))
        assert near_far_policy(3).pairs == ((1, 6), (2, 5), (3, 4))

    def test_string_form(self):
        assert str(near_far_policy(2)) == "(1,4),(2,3)"

    def test_pair_order_is_normalized(self):
        policy = PairingPolicy(((2, 3), (1, 4)))
        assert policy.pairs == ((1, 4), (2, 3))

    def test_rejects_reversed_pair(self):
        with pytest.raises(ValidationError):
            PairingPolicy(((4, 1), (2, 3)))

    def test_rejects_incomplete_cover(self):
        with pytest.raises(ValidationError):
            PairingPolicy(((1, 2), (2, 3)))
        with pytest.raises(ValidationError):
            PairingPolicy(((1, 2), (4, 5)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            near_far_policy(0)


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_counts_follow_double_factorial(self, n):
        policies = list(enumerate_matchings(n))
        assert len(policies) == _double_factorial(n - 1)
        unique = {frozenset(p.pairs) for p in policies}
        assert len(unique) == len(policies)

    def test_near_far_is_enumerated(self):
        assert near_far_policy(3).pairs in {p.pairs for p in enumerate_matchings(6)}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_array_is_the_tuple_recursion_in_its_order(self, n):
        reference = np.array(list(_tuple_matchings(tuple(range(n))))).reshape(-1, n // 2, 2)
        pairs = matching_array(n)
        assert len(pairs) == _double_factorial(n - 1)
        assert np.array_equal(pairs, reference)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_enumerated_policies_are_validated_policies(self, n):
        policies = list(enumerate_matchings(n))
        assert np.array_equal(pair_indices(policies), matching_array(n))
        for policy in policies:
            validated = PairingPolicy(policy.pairs)
            assert policy == validated and str(policy) == str(validated)

    def test_rejects_odd_and_oversized(self):
        for n, message in [
            (5, "n_users must be even, got 5"),
            (1, "n_users must be an integer >= 2, got 1"),
            (0, "n_users must be an integer >= 2, got 0"),
            (4.0, "n_users must be an integer >= 2, got 4.0"),
            (14, "enumeration is capped at 12 users, got 14"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                list(enumerate_matchings(n))
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                matching_array(n)


def _tuple_matchings(remaining):
    """Every perfect matching of `remaining` as a tuple of pairs, by plain
    recursion: the reference for the rows of `matching_array` and their order."""
    if not remaining:
        yield ()
        return
    first = remaining[0]
    for idx in range(1, len(remaining)):
        rest = remaining[1:idx] + remaining[idx + 1 :]
        for tail in _tuple_matchings(rest):
            yield ((first, remaining[idx]),) + tail


class TestPairingSumRate:
    def test_single_pair_reduces_to_two_user_system(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        report = pairing_sum_rate(gains, near_far_policy(1), SNR10)
        alloc = optimal_two_user(SNR10, 0.3)
        assert report.noma_sum == pytest.approx(
            noma_sum_rate(gains, alloc, SNR10), rel=1e-12
        )
        assert report.oma_rates == pytest.approx(oma_rates(gains, SNR10), rel=1e-12)

    def test_reference_network(self):
        report = pairing_sum_rate(GAINS4, near_far_policy(2), SNR10)
        # the weak user of pair (1,4) lands exactly on its half-resource rate
        assert report.noma_rates[0] == pytest.approx(1.0, rel=1e-12)
        assert report.noma_sum == pytest.approx(9.312882955284355, rel=1e-12)

    def test_weak_users_hit_their_pair_baseline(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gains = ChannelGains(np.sort(rng.standard_exponential(6)))
            report = pairing_sum_rate(gains, near_far_policy(3), SNR10)
            for i, _ in near_far_policy(3).pairs:
                noma = report.noma_rates[i - 1]
                oma = report.oma_rates[i - 1]
                assert abs(noma - oma) <= 1e-9 * oma

    def test_matching_sum_is_sum_of_pair_systems(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 6, 8):
            policies = list(enumerate_matchings(n))
            for _ in range(3):
                gains = ChannelGains(np.sort(rng.standard_exponential(n)))
                table = matching_rates(SNR10.rho, gains.gains, pair_indices(policies))
                for policy, row in zip(policies, table):
                    report = pairing_sum_rate(gains, policy, SNR10)
                    assert np.array_equal(report.noma_rates, row)
                    total = 0.0
                    for i, j in policy.pairs:
                        sub = ChannelGains(np.array([gains.gains[i - 1], gains.gains[j - 1]]))
                        alloc = optimal_two_user(SNR10, sub.gains[0])
                        total += noma_sum_rate(sub, alloc, SNR10)
                        # the batched pair kernel gives each pair's own system bit for bit
                        assert np.array_equal(row[[i - 1, j - 1]], noma_rates(sub, alloc, SNR10))
                    assert report.noma_sum == pytest.approx(total, rel=1e-12)
        # a (trials, 4) gain batch gives each of its rows' own rates bit for bit
        batch = np.sort(rng.standard_exponential((50, 4)), axis=1)
        pairs = pair_indices(enumerate_matchings(4))
        rates = matching_rates(SNR10.rho, batch, pairs)
        assert rates.shape == (50, 3, 4)
        for trial, gains in enumerate(batch):
            assert np.array_equal(rates[trial], matching_rates(SNR10.rho, gains, pairs))

    def test_equals_the_batched_sums_over_every_ten_user_matching(self):
        gains = ChannelGains(np.sort(np.random.default_rng(8).standard_exponential(10)))
        sums = matching_rates(SNR10.rho, gains.gains, matching_array(10)).sum(axis=-1)
        policies = list(enumerate_matchings(10))
        assert len(policies) == len(sums) == 945
        for policy, total in zip(policies, sums.tolist()):
            assert pairing_sum_rate(gains, policy, SNR10).noma_sum == total

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_subnormal_received_snr(self):
        gains = ChannelGains(np.array([5e-324, 1e-320, 1.0, 2.0]))
        with pytest.raises(ValidationError, match="must be positive, finite and normal"):
            pairing_sum_rate(gains, near_far_policy(2), TransmitSnr(1.0))

    def test_rejects_policy_size_mismatch(self):
        with pytest.raises(DimensionError):
            pairing_sum_rate(GAINS4, near_far_policy(3), SNR10)


class TestFourUserCases:
    def test_reference_values(self):
        cases = four_user_cases(GAINS4, SNR10)
        assert cases.case1 == pytest.approx(8.386257706834769, rel=1e-12)
        assert cases.case2 == pytest.approx(9.278449458220481, rel=1e-12)
        assert cases.case3 == pytest.approx(9.312882955284355, rel=1e-12)

    def test_equal_gains_make_all_cases_tie(self):
        gains = ChannelGains(np.array([1.0, 1.0, 1.0, 1.0]))
        cases = four_user_cases(gains, SNR10)
        assert cases.case1 == pytest.approx(cases.case2, rel=1e-12)
        assert cases.case2 == pytest.approx(cases.case3, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=4, max_size=4),
        st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_case_ordering(self, raw_gains, rho):
        gains = ChannelGains(np.sort(np.asarray(raw_gains)))
        cases = four_user_cases(gains, TransmitSnr(rho))
        assert cases.case1 <= cases.case2 + 1e-9
        assert cases.case2 <= cases.case3 + 1e-9

    def test_near_far_beats_every_matching(self):
        rng = np.random.default_rng(7)
        for k in (2, 3):
            for _ in range(25):
                gains = ChannelGains(np.sort(rng.standard_exponential(2 * k)))
                near_far = pairing_sum_rate(gains, near_far_policy(k), SNR10).noma_sum
                best = max(
                    pairing_sum_rate(gains, policy, SNR10).noma_sum
                    for policy in enumerate_matchings(2 * k)
                )
                assert near_far >= best - 1e-9

    @pytest.mark.filterwarnings("error")
    def test_rejects_rho_g_beyond_float_range(self):
        gains = ChannelGains(np.array([1.0, 2.0, 3.0, 1e10]))
        with pytest.raises(ValidationError, match=r"^rho\*g must be positive, finite and normal$"):
            four_user_cases(gains, TransmitSnr(1e300))

    def test_requires_exactly_four_users(self):
        with pytest.raises(DimensionError):
            four_user_cases(ChannelGains(np.array([0.3, 2.0])), SNR10)


class TestStrongShareOrdering:
    def test_strong_share_is_nondecreasing_in_the_weak_gain(self):
        for rho in (0.1, 1.0, 10.0, 1000.0):
            snr = TransmitSnr(rho)
            shares = [
                optimal_two_user(snr, float(g)).alphas[1]
                for g in np.geomspace(1e-3, 1e2, 40)
            ]
            assert np.all(np.diff(shares) >= 0.0)


class TestCaseGap:
    def test_gap_vanishes_at_low_snr(self):
        cases = four_user_cases(GAINS4, TransmitSnr(1e-6))
        assert cases.case2 - cases.case1 < 1e-5

    def test_gap_approaches_middle_gain_ratio(self):
        report = case_gap_monotonicity(GAINS4, np.geomspace(1e-6, 1e6, 50))
        assert report.high_snr_limit == pytest.approx(math.log2(2.5), rel=1e-15)
        assert report.gaps[-1] == pytest.approx(report.high_snr_limit, rel=0.01)
        assert report.nondecreasing
        # the whole grid in one kernel call equals one SNR at a time, bit for bit
        for rho, gap in zip(report.rho_grid, report.gaps):
            cases = four_user_cases(GAINS4, TransmitSnr(float(rho)))
            assert gap == cases.case2 - cases.case1

    def test_equal_middle_gains_give_zero_limit(self):
        gains = ChannelGains(np.array([0.3, 1.0, 1.0, 5.0]))
        report = case_gap_monotonicity(gains, np.geomspace(1e-2, 1e4, 25))
        assert report.high_snr_limit == 0.0
        assert report.gaps[-1] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_rejects_rho_g_beyond_float_range(self):
        with pytest.raises(ValidationError, match=r"^rho\*g must be positive, finite and normal$"):
            case_gap_monotonicity(GAINS4, [1.0, 1e308])

    def test_grid_must_be_ascending_and_positive(self):
        with pytest.raises(ValidationError):
            case_gap_monotonicity(GAINS4, np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValidationError):
            case_gap_monotonicity(GAINS4, np.array([-1.0, 1.0]))
        with pytest.raises(ValidationError):
            case_gap_monotonicity(GAINS4, np.array([1.0]))
