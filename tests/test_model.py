"""Rate-model unit and property tests."""

import decimal
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplink_noma import (
    ChannelGains,
    DimensionError,
    FeasibleInterval,
    PairingPolicy,
    PowerAllocation,
    RateReport,
    SweepConfig,
    SweepResult,
    TransmitSnr,
    ValidationError,
    case_gap_monotonicity,
    m_user_shares,
    matching_array,
    near_far_policy,
    noma_rates,
    noma_sum_rate,
    oma_rates,
    optimal_m_user,
    sample_gain_rows,
    strong_share_bounds,
)
from uplink_noma.model import (
    ascending_grid, check_received_snr, group_sum_rate, log2_1p, real_array,
    sic_rates,
)

SNR10 = TransmitSnr(10.0)


def _unchecked_allocation(values) -> PowerAllocation:
    """Build an allocation without validation, for degenerate identity tests."""
    alloc = object.__new__(PowerAllocation)
    object.__setattr__(alloc, "alphas", np.asarray(values, dtype=float))
    return alloc


class TestNomaRates:
    def test_two_user_reference_point(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        alloc = PowerAllocation(np.array([1.0 / 3.0, 2.0 / 3.0]))
        rates = noma_rates(gains, alloc, SNR10)
        # closed form: R1 = log2(2), R2 = log2(23/3)
        assert rates == pytest.approx([1.0, 2.9385994553358567], rel=1e-12)

    def test_weakest_user_sees_no_interference(self):
        gains = ChannelGains(np.array([0.5, 1.0, 4.0]))
        alloc = PowerAllocation(np.array([0.2, 0.3, 0.5]))
        rates = noma_rates(gains, alloc, SNR10)
        assert rates[0] == pytest.approx(np.log2(1.0 + 10.0 * 0.2 * 0.5), rel=1e-12)

    def test_equal_gains_equal_split_symmetry(self):
        g = 1.7
        gains = ChannelGains(np.array([g, g]))
        alloc = PowerAllocation(np.array([0.5, 0.5]))
        rates = noma_rates(gains, alloc, SNR10)
        assert rates[0] == pytest.approx(np.log2(1.0 + 10.0 * g / 2.0), rel=1e-12)
        # the strong user decodes first, against the weak user's full signal
        expected_r2 = np.log2(1.0 + (5.0 * g) / (1.0 + 5.0 * g))
        assert rates[1] == pytest.approx(expected_r2, rel=1e-12)

    def test_length_mismatch_raises(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        alloc = PowerAllocation(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(DimensionError):
            noma_rates(gains, alloc, SNR10)
        with pytest.raises(DimensionError):
            noma_sum_rate(gains, alloc, SNR10)


class TestOmaRates:
    def test_two_user_reference_point(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        assert oma_rates(gains, SNR10) == pytest.approx(
            [1.0, 2.1961587113893801], rel=1e-12
        )

    def test_half_log_at_two_users(self):
        gains = ChannelGains(np.array([0.5, 2.0]))
        assert oma_rates(gains, SNR10) == pytest.approx(
            [1.2924812503605781, 2.1961587113893801], rel=1e-12
        )

    def test_share_shrinks_with_group_size(self):
        g3 = ChannelGains(np.array([0.5, 1.0, 2.0]))
        rates = oma_rates(g3, SNR10)
        assert rates[1] == pytest.approx(np.log2(11.0) / 3.0, rel=1e-12)


class TestNomaSumRate:
    def test_reference_point(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        alloc = PowerAllocation(np.array([1.0 / 3.0, 2.0 / 3.0]))
        assert noma_sum_rate(gains, alloc, SNR10) == pytest.approx(
            3.9385994553358567, rel=1e-12
        )

    def test_single_user_reduction(self):
        # degenerate [1, 0] collapses the sum rate to the weak user alone
        gains = ChannelGains(np.array([0.3, 2.0]))
        alloc = _unchecked_allocation([1.0, 0.0])
        assert noma_sum_rate(gains, alloc, SNR10) == pytest.approx(
            np.log2(1.0 + 10.0 * 0.3), rel=1e-12
        )

    def test_increasing_in_strong_share_when_gains_differ(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        grid = np.linspace(0.05, 0.95, 31)
        sums = [
            noma_sum_rate(gains, PowerAllocation(np.array([1.0 - a2, a2])), SNR10)
            for a2 in grid
        ]
        assert np.all(np.diff(sums) > 0.0)

    def test_flat_in_strong_share_when_gains_equal(self):
        gains = ChannelGains(np.array([1.3, 1.3]))
        grid = np.linspace(0.05, 0.95, 31)
        sums = [
            noma_sum_rate(gains, PowerAllocation(np.array([1.0 - a2, a2])), SNR10)
            for a2 in grid
        ]
        assert np.allclose(sums, sums[0], rtol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 8, 32])
    def test_given_buffers_give_the_same_bits(self, m):
        rng = np.random.default_rng(m)
        gains = np.sort(rng.exponential(size=(101, m)), axis=1)
        alphas = rng.dirichlet(np.ones(m), size=101)
        products = (alphas * gains).T  # users leading, Fortran-ordered
        expected = group_sum_rate(10.0, np.ascontiguousarray(products))
        for layout in (np.ascontiguousarray(products), products):
            out = np.full(101, np.nan)
            assert group_sum_rate(10.0, layout, out=out) is out
            assert np.array_equal(out, expected)


# user counts either side of numpy's unroll of 8 and of its pairwise blocks
# of 128, where a vector sum's order changes
_SUM_USERS = [2, 3, 7, 8, 9, 32, 129, 130, 1000]


def _spread_terms(m, shape):
    """Users-leading (m, *shape) terms, the users far apart in size, so that
    sums in different orders differ in their last bits."""
    rng = np.random.default_rng(m)
    scales = rng.permutation(np.geomspace(1e-8, 1e8, m))
    return rng.exponential(size=(m, *shape)) * scales.reshape((m,) + (1,) * len(shape))


class TestGroupSumOrder:
    """`group_sum_rate` sums C-contiguous users-leading products as
    `np.add.reduce` does: row by row with two or more trials, and as
    `np.sum` sums a vector with one."""

    @pytest.mark.parametrize("trials", [2, 7, 500])
    @pytest.mark.parametrize("m", _SUM_USERS)
    def test_sums_the_users_left_to_right(self, m, trials):
        terms = _spread_terms(m, (trials,))
        total = terms[0].copy()
        for row in terms[1:]:
            total += row  # ((t0 + t1) + t2) + ...
        assert np.array_equal(group_sum_rate(10.0, terms), log2_1p(10.0 * total))

    @pytest.mark.parametrize("m", _SUM_USERS)
    def test_one_trial_sums_as_numpy_sums_a_vector(self, m):
        row = _spread_terms(m, ())
        expected = log2_1p(10.0 * np.sum(row))
        assert group_sum_rate(10.0, row) == expected
        assert np.array_equal(group_sum_rate(10.0, row[:, np.newaxis]), [expected])

    @pytest.mark.parametrize("m", _SUM_USERS)
    def test_layout_and_out_give_the_same_bits(self, m):
        # products handed in transposed, as trials-leading rows give them,
        # are copied C-contiguous first, so they sum in the same order
        for trials in (1, 2, 7, 500):
            terms = _spread_terms(m, (trials,))
            expected = group_sum_rate(10.0, terms)
            for layout in (terms, np.ascontiguousarray(terms.T).T):
                out = np.full(trials, np.nan)
                assert group_sum_rate(10.0, layout, out=out) is out
                assert np.array_equal(out, expected)
                assert np.array_equal(group_sum_rate(10.0, layout), expected)


@st.composite
def rate_problems(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    gains = sorted(
        draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1e2),
                min_size=m,
                max_size=m,
            )
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=m,
            max_size=m,
        )
    )
    alphas = np.asarray(weights) / np.sum(weights)
    rho = draw(st.floats(min_value=1e-2, max_value=1e4))
    return ChannelGains(np.asarray(gains)), PowerAllocation(alphas), TransmitSnr(rho)


class TestTelescoping:
    @given(rate_problems())
    @settings(max_examples=150, deadline=None)
    def test_rates_sum_to_sum_rate(self, problem):
        gains, alloc, snr = problem
        total = noma_sum_rate(gains, alloc, snr)
        stacked = float(np.sum(noma_rates(gains, alloc, snr)))
        assert abs(total - stacked) <= 1e-9 * max(abs(total), 1e-12)

    @given(rate_problems())
    @settings(max_examples=60, deadline=None)
    def test_rates_nonnegative(self, problem):
        gains, alloc, snr = problem
        assert np.all(noma_rates(gains, alloc, snr) >= 0.0)
        assert np.all(oma_rates(gains, snr) >= 0.0)


def _decimal_sic_rates(rho, alphas, gains):
    """log2(1 + rho*a_i*g_i / (1 + sum_{j<i} rho*a_j*g_j)) for one user vector,
    in 60-digit decimals from the exact values of the float inputs."""
    with decimal.localcontext(decimal.Context(prec=60)):
        signals = [
            decimal.Decimal(float(rho)) * decimal.Decimal(float(a)) * decimal.Decimal(float(g))
            for a, g in zip(alphas, gains)
        ]
        log2 = decimal.Decimal(2).ln()
        rates, interference = [], decimal.Decimal(0)
        for signal in signals:
            rates.append(float((1 + signal / (1 + interference)).ln() / log2))
            interference += signal
        return np.array(rates)


def _batch_id(batch):
    return "x".join(map(str, batch)) or "scalar"


def _sic_problem(m, batch, seed):
    """rho broadcast over the batch, shares summing to 1 and ascending gains."""
    rng = np.random.default_rng([m, len(batch), seed])
    rho = 10.0 ** rng.uniform(-1.0, 4.0, batch + (1,)) if batch else 10.0 ** rng.uniform(-1, 4)
    weights = rng.uniform(0.05, 1.0, batch + (m,))
    gains = np.sort(rng.exponential(size=batch + (m,)), axis=-1)
    return rho, weights / weights.sum(axis=-1, keepdims=True), gains


class TestSicRates:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 5, 12])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 4)], ids=_batch_id)
    def test_matches_a_60_digit_reference(self, m, batch):
        rho, alphas, gains = _sic_problem(m, batch, 0)
        rates = sic_rates(rho, alphas, gains)
        assert rates.shape == batch + (m,)
        rhos = np.broadcast_to(rho, batch + (1,)).reshape(-1)
        for r, a, g, row in zip(
            rhos, alphas.reshape(-1, m), gains.reshape(-1, m), rates.reshape(-1, m)
        ):
            ref = _decimal_sic_rates(r, a, g)
            assert np.all(np.abs(row - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("m", [2, 3, 12])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 4)], ids=_batch_id)
    def test_out_holds_the_returned_rates(self, m, batch):
        rho, alphas, gains = _sic_problem(m, batch, 1)
        fresh = sic_rates(rho, alphas, gains)
        users_leading = np.empty((m,) + batch)
        for out in (np.empty(batch + (m,)), np.moveaxis(users_leading, 0, -1)):
            assert sic_rates(rho, alphas, gains, out=out) is out
            assert np.array_equal(out, fresh)

    @pytest.mark.parametrize("m", [2, 3, 12])
    @pytest.mark.parametrize("batch", [(7,), (3, 4)], ids=_batch_id)
    def test_input_layout_leaves_the_bits(self, m, batch):
        # C-contiguous, users-leading (the transpose of a C array) and strided
        # inputs hold the same values, and each user's rates are elementwise
        rho, alphas, gains = _sic_problem(m, batch, 2)
        fresh = sic_rates(rho, alphas, gains)
        for layout in (
            lambda v: np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1),
            lambda v: np.repeat(v, 2, axis=-1)[..., ::2],
            np.asfortranarray,
        ):
            assert np.array_equal(sic_rates(rho, layout(alphas), layout(gains)), fresh)


class TestValidation:
    def test_snr_must_be_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan"), True, False, np.float32("inf"),
                    np.int64(0), 10**400, "10", None, np.array([10.0])):
            with pytest.raises(ValidationError):
                TransmitSnr(bad)
        # any finite real number but a bool, stored as a Python float
        for good in (10, 10.0, np.int64(10), np.float32(10), np.float64(10)):
            snr = TransmitSnr(good)
            assert type(snr.rho) is float and snr.rho == 10.0

    def test_snr_from_db(self):
        assert TransmitSnr.from_db(10.0).rho == pytest.approx(10.0, rel=1e-15)
        assert TransmitSnr.from_db(-10.0).rho == pytest.approx(0.1, rel=1e-15)
        assert TransmitSnr.from_db(0.0).rho == 1.0

    def test_snr_from_db_out_of_float_range(self):
        # 10**(-400) underflows to 0 and 10**400 overflows; both name the dB value
        with pytest.raises(ValidationError, match=r"^SNR of -4000\.0 dB underflows a float$"):
            TransmitSnr.from_db(-4000.0)
        with pytest.raises(ValidationError, match=r"^SNR of 4000\.0 dB overflows a float$"):
            TransmitSnr.from_db(4000.0)
        # a subnormal rho is still positive; the received-SNR checks refuse it
        assert 0.0 < TransmitSnr.from_db(-3230.0).rho < 1e-322

    @pytest.mark.parametrize("gains", [[2.0, 0.3], [1.0, 0.9]])
    def test_gains_must_be_sorted_ascending(self, gains):
        with pytest.raises(ValidationError, match="ascending"):
            ChannelGains(np.array(gains))

    # positivity is checked first: a descending vector with a negative gain
    # is refused as not positive
    @pytest.mark.parametrize("gains", [[0.0, 1.0], [-0.5, 1.0], [-0.5, 2.0], [1.0, -0.5]])
    def test_gains_must_be_positive(self, gains):
        with pytest.raises(ValidationError, match="positive"):
            ChannelGains(np.array(gains))

    def test_gains_need_at_least_two_users(self):
        with pytest.raises(ValidationError):
            ChannelGains(np.array([1.0]))

    def test_equal_gains_are_accepted(self):
        gains = ChannelGains(np.array([1.0, 1.0, 1.0]))
        assert gains.m == 3

    def test_gains_are_immutable(self):
        gains = ChannelGains(np.array([0.3, 2.0]))
        with pytest.raises(ValueError):
            gains.gains[0] = 9.0

    def test_alphas_must_be_interior(self):
        with pytest.raises(ValidationError):
            PowerAllocation(np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            PowerAllocation(np.array([-0.1, 1.1]))

    def test_alphas_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PowerAllocation(np.array([0.5, 0.5 + 3e-12]))
        # within tolerance is fine
        PowerAllocation(np.array([0.5, 0.5 + 5e-13]))


class TestRateReport:
    def test_sums_are_the_sums_of_the_frozen_vectors(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 8, 33):
            noma, oma = rng.uniform(0.0, 5.0, (2, n))
            report = RateReport(noma[::-1], oma)  # a strided view is copied first
            assert report.noma_sum == float(np.ascontiguousarray(noma[::-1]).sum())
            assert report.oma_sum == float(oma.sum())
            assert np.array_equal(report.noma_rates, noma[::-1])
            assert not report.noma_rates.flags.writeable

    def test_constructor_refuses_sums(self):
        rates = np.array([1.0, 2.0])
        with pytest.raises(TypeError):
            RateReport(rates, rates, 3.0, 3.0)
        with pytest.raises(TypeError):
            RateReport(rates, rates, noma_sum=3.0)

    def test_rejects_bad_vectors(self):
        with pytest.raises(DimensionError):
            RateReport(np.ones(2), np.ones(3))
        with pytest.raises(ValidationError):
            RateReport(np.array([1.0, -1.0]), np.ones(2))
        with pytest.raises(ValidationError):
            RateReport(np.array([1.0, np.inf]), np.ones(2))


# every scalar argument checked at the library boundary, but `SweepConfig`'s
# and `TransmitSnr`'s (tests/test_sim.py and TestValidation loop over theirs):
# a call taking the argument's value, and a valid value for an integer
# argument, or None for a real one
SCALAR_ARGUMENTS = {
    "sample_gain_rows m": (lambda v: sample_gain_rows(v, 1, 1), 2),
    "sample_gain_rows seed": (lambda v: sample_gain_rows(2, v, 1), 2),
    "sample_gain_rows count": (lambda v: sample_gain_rows(2, 1, v), 2),
    "sample_gain_rows first": (lambda v: sample_gain_rows(2, 1, 1, v), 2),
    "m_user_shares m": (lambda v: m_user_shares(1.0, v), 2),
    "optimal_m_user m": (lambda v: optimal_m_user(SNR10, 0.5, v), 2),
    "near_far_policy k": (near_far_policy, 2),
    "matching_array n_users": (matching_array, 2),
    "PairingPolicy index": (lambda v: PairingPolicy(((v, 2),)), 1),
    "optimal_m_user g1": (lambda v: optimal_m_user(SNR10, v, 2), None),
    "strong_share_bounds g1": (lambda v: strong_share_bounds(SNR10, v, 3.0), None),
    "strong_share_bounds g2": (lambda v: strong_share_bounds(SNR10, 0.5, v), None),
}


class TestBoundaryChecks:
    @pytest.mark.parametrize("argument", list(SCALAR_ARGUMENTS))
    def test_scalar_arguments_refuse_bools_and_text(self, argument):
        call, good = SCALAR_ARGUMENTS[argument]
        refused = (True, False, "2") + ((1.5,) if good is not None else (np.array([2.0]),))
        for bad in refused:
            with pytest.raises(ValidationError):
                call(bad)
        if good is not None:  # numpy integers are integers
            for kind in (np.int64, np.uint64):
                call(kind(good))

    def test_value_objects_copy_and_never_freeze_the_callers_data(self):
        gains, grid = ChannelGains([0.3, 0.8, 2.0, 5.0]), np.array([1.0, 10.0, 100.0])
        report = case_gap_monotonicity(gains, grid)
        assert grid.flags.writeable and report.rho_grid is not grid
        assert not report.rho_grid.flags.writeable
        series, stderr = {"sum": np.array([1.0, 2.0])}, {"sum": np.array([0.1, 0.2])}
        result = SweepResult("m-user-group", 3, np.array([0.0, 5.0]), series, stderr, 5, 1)
        for given, kept in ((series, result.series), (stderr, result.stderr)):
            assert kept is not given and kept["sum"] is not given["sum"]
            assert given["sum"].flags.writeable and not kept["sum"].flags.writeable
        for vector in ([True, True], ["0.5", "1"]):
            for build in (ChannelGains, PowerAllocation, lambda v: RateReport(v, v),
                          lambda v: case_gap_monotonicity(gains, v)):
                with pytest.raises(ValidationError):
                    build(vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vectors_are_refused_by_real_array(self, bad):
        # the one finiteness check of a given array, for every value object
        # and grid that takes one
        gains = ChannelGains([0.3, 0.8, 2.0, 5.0])
        builds = {
            "values": lambda v: real_array("values", v),
            "gains": ChannelGains,
            "alphas": PowerAllocation,
            "noma_rates": lambda v: RateReport(v, np.ones(2)),
            "series['sum']": lambda v: SweepResult(
                "m-user-group", 3, np.array([0.0, 5.0]), {"sum": v}, {"sum": np.ones(2)}, 5, 1
            ),
            "snr_db": lambda v: SweepConfig(mode="two-user-sum", snr_db=v),
            "rho_grid": lambda v: case_gap_monotonicity(gains, v),
        }
        for name, build in builds.items():
            with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be finite$"):
                build(np.array([0.5, bad]))
        # a non-finite interval end fails the interval's own order
        with pytest.raises(ValidationError, match="^interval must satisfy"):
            FeasibleInterval(0.5, bad)

    def test_ascending_grid(self):
        assert ascending_grid("grid", (1, 2.5), 2).tolist() == [1.0, 2.5]
        assert ascending_grid("grid", [-3.0], 1).tolist() == [-3.0]
        message = r"^grid must be a strictly ascending 1-d grid of length >= 2$"
        for bad in ([1.0], [1.0, 1.0], [2.0, 1.0], [[1.0, 2.0]], 1.0):
            with pytest.raises(ValidationError, match=message):
                ascending_grid("grid", bad, 2)

    def test_received_snr_check_passes_an_empty_array(self):
        check_received_snr(1.0, np.empty(0))
        check_received_snr(np.empty(0), [0.5, 2.0])
        for rho, gains in ((np.nan, 1.0), (1.0, [1.0, np.inf]), (1e-300, 1e-10)):
            with pytest.raises(ValidationError, match=r"^rho\*g must be positive, finite and normal$"):
                check_received_snr(rho, gains)
