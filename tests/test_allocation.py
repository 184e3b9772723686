"""Power allocation tests: closed forms against independent numerical oracles."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import uplink_noma.allocation as allocation
from uplink_noma import (
    ChannelGains,
    PowerAllocation,
    TransmitSnr,
    ValidationError,
    m_user_shares,
    noma_rates,
    noma_sum_rate,
    oma_rates,
    optimal_m_user,
    optimal_two_user,
    protected_m_user,
    strong_share_bounds,
)
from uplink_noma.model import MIN_RECEIVED_SNR

SNR10 = TransmitSnr(10.0)

RHO_GRID = np.geomspace(1e-2, 1e4, 20)
G1_GRID = np.geomspace(1e-3, 1e2, 20)


def _bisect(func, lo, hi, iterations=200):
    """Sign-change bisection, assuming func(lo) and func(hi) differ in sign."""
    f_lo = func(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _two_user_rates(rho, g1, g2, a2):
    """Plain-log rate formulas, kept independent of the library internals."""
    a1 = 1.0 - a2
    r1 = np.log2(1.0 + rho * a1 * g1)
    r2 = np.log2(1.0 + rho * a2 * g2 / (1.0 + rho * a1 * g1))
    return r1, r2


class TestTwoUserOptimum:
    def test_anchor_one_third(self):
        alloc = optimal_two_user(SNR10, 0.3)
        # rho*g1 = 3 makes the square root exact
        assert abs(alloc.alphas[0] - 1.0 / 3.0) <= 1e-12
        assert abs(alloc.alphas[1] - 2.0 / 3.0) <= 1e-12

    def test_anchor_one_quarter(self):
        alloc = optimal_two_user(SNR10, 0.8)
        assert abs(alloc.alphas[0] - 0.25) <= 1e-12
        assert abs(alloc.alphas[1] - 0.75) <= 1e-12

    def test_irrational_point(self):
        alloc = optimal_two_user(SNR10, 0.5)
        assert alloc.alphas[0] == pytest.approx(0.2898979485566356, rel=1e-14)
        assert alloc.alphas[1] == pytest.approx(0.7101020514433644, rel=1e-14)

    def test_depends_only_on_the_product_rho_g1(self):
        a = optimal_two_user(TransmitSnr(10.0), 0.5)
        b = optimal_two_user(TransmitSnr(0.5), 10.0)
        assert a.alphas == pytest.approx(b.alphas, rel=1e-14)

    def test_strong_share_interior_over_wide_grid(self):
        for rho in RHO_GRID:
            snr = TransmitSnr(float(rho))
            for g1 in G1_GRID:
                alphas = optimal_two_user(snr, float(g1)).alphas
                assert 0.0 < alphas[1] < 1.0
                assert 0.0 < alphas[0] < 1.0

    def test_weak_user_rate_equals_orthogonal_rate(self):
        worst = 0.0
        for rho in RHO_GRID:
            snr = TransmitSnr(float(rho))
            for g1 in G1_GRID:
                g = ChannelGains(np.array([g1, 2.0 * g1]))
                alloc = optimal_two_user(snr, float(g1))
                r1 = noma_rates(g, alloc, snr)[0]
                o1 = oma_rates(g, snr)[0]
                worst = max(worst, abs(r1 - o1) / o1)
        assert worst <= 1e-9

    def test_strong_user_never_below_orthogonal_rate(self):
        for rho in RHO_GRID:
            snr = TransmitSnr(float(rho))
            for g1 in G1_GRID:
                for factor in (1.0, 2.0, 10.0):
                    g = ChannelGains(np.array([g1, factor * g1]))
                    alloc = optimal_two_user(snr, float(g1))
                    r2 = noma_rates(g, alloc, snr)[1]
                    o2 = oma_rates(g, snr)[1]
                    assert r2 >= o2 - 1e-9


class TestBounds:
    def test_reference_interval(self):
        interval = strong_share_bounds(SNR10, 0.3, 2.0)
        assert interval.upper == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert interval.lower == pytest.approx(0.4660605559646720, rel=1e-14)

    def test_equal_gains_collapse_the_interval(self):
        interval = strong_share_bounds(SNR10, 0.8, 0.8)
        assert interval.upper == pytest.approx(0.75, abs=1e-12)
        assert interval.lower == interval.upper

    def test_upper_bound_solves_weak_protection_equation(self):
        # independent check: R1(a2) - R1_oma crosses zero exactly at the top
        for rho, g1, g2 in [(10.0, 0.3, 2.0), (3.0, 1.5, 1.7), (200.0, 0.02, 0.5)]:
            snr = TransmitSnr(rho)
            o1 = 0.5 * np.log2(1.0 + rho * g1)

            def gap(a2):
                return _two_user_rates(rho, g1, g2, a2)[0] - o1

            root = _bisect(gap, 1e-9, 1.0 - 1e-9)
            assert strong_share_bounds(snr, g1, g2).upper == pytest.approx(root, rel=1e-9)

    def test_lower_bound_solves_strong_protection_equation(self):
        for rho, g1, g2 in [(10.0, 0.3, 2.0), (3.0, 1.5, 1.7), (200.0, 0.02, 0.5)]:
            snr = TransmitSnr(rho)
            o2 = 0.5 * np.log2(1.0 + rho * g2)

            def gap(a2):
                return _two_user_rates(rho, g1, g2, a2)[1] - o2

            root = _bisect(gap, 1e-9, 1.0 - 1e-9)
            assert strong_share_bounds(snr, g1, g2).lower == pytest.approx(root, rel=1e-9)

    def test_upper_tends_to_half_for_vanishing_gain(self):
        interval = strong_share_bounds(TransmitSnr(1.0), 1e-9, 2e-9)
        assert interval.upper == pytest.approx(0.5, rel=1e-6)

    def test_optimum_sits_on_the_upper_bound(self):
        # the upper end is the optimum's strong share, bit for bit, and that
        # share is (1+s1)*s1/x1, s1 = sqrt(1+x1) - 1, in 60-digit decimals
        for rho in RHO_GRID:
            snr = TransmitSnr(float(rho))
            for g1 in G1_GRID:
                with decimal.localcontext(decimal.Context(prec=60)):
                    x1 = decimal.Decimal(float(rho) * float(g1))
                    s1 = (1 + x1).sqrt() - 1
                    ref = float((1 + s1) * s1 / x1)
                upper = strong_share_bounds(snr, float(g1), 3.0 * float(g1)).upper
                a2 = optimal_two_user(snr, float(g1)).alphas[1]
                assert upper == a2
                assert abs(a2 - ref) <= 1e-14 * ref

    @given(
        rho=st.floats(min_value=1e-2, max_value=1e4),
        g1=st.floats(min_value=1e-3, max_value=1e2),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_is_always_well_ordered(self, rho, g1, factor):
        interval = strong_share_bounds(TransmitSnr(rho), g1, factor * g1)
        assert 0.0 < interval.lower <= interval.upper < 1.0

    def test_rejects_swapped_gains(self):
        with pytest.raises(ValidationError):
            strong_share_bounds(SNR10, 2.0, 0.3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "exponents", [range(-30, 31), range(-300, 301, 20)], ids=["1e-30..1e30", "1e-300..1e300"]
    )
    def test_is_total_on_extreme_grids(self, exponents):
        # every (rho, g1 <= g2) on a decade grid: an interval, or one of the
        # documented errors, never the interval type's own complaint
        values = [10.0**e for e in exponents]
        for rho in values:
            snr = TransmitSnr(rho)
            for i, g1 in enumerate(values):
                for g2 in values[i:]:
                    try:
                        interval = strong_share_bounds(snr, g1, g2)
                    except (ValidationError, allocation.InfeasibleIntervalError) as exc:
                        assert not str(exc).startswith(("interval ends", "interval must"))
                    else:
                        assert 0.0 < interval.lower <= interval.upper < 1.0

    def test_upper_end_rounding_to_one_names_rho_g1(self):
        with pytest.raises(ValidationError, match=r"rho\*g1 of 1e\+33"):
            strong_share_bounds(TransmitSnr(1e30), 1e3, 1e4)
        with pytest.raises(ValidationError, match="positive, finite and normal"):
            strong_share_bounds(TransmitSnr(1e-300), 1e-10, 1.0)
        with pytest.raises(ValidationError, match="positive, finite and normal"):
            strong_share_bounds(TransmitSnr(1e300), 1.0, 1e10)

    def test_interval_type_rejects_disorder(self):
        with pytest.raises(ValidationError):
            allocation.FeasibleInterval(0.7, 0.3)


class TestOptimalityOracle:
    def test_scan_never_beats_closed_form(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            rho = 10.0 ** rng.uniform(-2, 4)
            g1 = 10.0 ** rng.uniform(-3, 2)
            g2 = g1 * 10.0 ** rng.uniform(0, 2)
            snr = TransmitSnr(rho)
            best = _best_feasible_by_scan(rho, g1, g2)
            alloc = optimal_two_user(snr, g1)
            closed = float(
                np.log2(1.0 + rho * (alloc.alphas[0] * g1 + alloc.alphas[1] * g2))
            )
            assert closed >= best - 1e-7


def _best_feasible_by_scan(rho, g1, g2, points=10_000):
    """Grid scan plus one refinement pass, using only the rate formulas."""
    o1 = 0.5 * np.log2(1.0 + rho * g1)
    o2 = 0.5 * np.log2(1.0 + rho * g2)

    def best_on(a2):
        r1, r2 = _two_user_rates(rho, g1, g2, a2)
        feasible = (r1 >= o1) & (r2 >= o2)
        if not feasible.any():
            return None, None
        sums = np.log2(1.0 + rho * ((1.0 - a2) * g1 + a2 * g2))
        sums[~feasible] = -np.inf
        idx = int(np.argmax(sums))
        return float(sums[idx]), a2[idx]

    coarse = np.linspace(0.0, 1.0, points + 2)[1:-1]
    best, at = best_on(coarse)
    if best is None:
        return -np.inf
    step = coarse[1] - coarse[0]
    fine = np.linspace(max(at - step, 0.0), min(at + step, 1.0), points + 2)[1:-1]
    refined, _ = best_on(fine)
    if refined is None:
        return best
    return max(best, refined)


class TestMUser:
    def test_three_user_reference_split(self):
        alloc = optimal_m_user(SNR10, 0.7, 3)
        assert alloc.alphas == pytest.approx(
            [0.14285714285714285, 0.4040610178208843, 0.45308183932197284],
            rel=1e-13,
        )

    def test_four_user_weak_share_is_exact(self):
        # rho*g1 = 15 gives a fourth root of 16
        alloc = optimal_m_user(SNR10, 1.5, 4)
        assert alloc.alphas[0] == pytest.approx(1.0 / 15.0, rel=1e-13)

    def test_two_user_base_case_matches(self):
        direct = optimal_two_user(SNR10, 0.35)
        via_recursion = optimal_m_user(SNR10, 0.35, 2)
        assert np.array_equal(direct.alphas, via_recursion.alphas)

    @pytest.mark.parametrize("m", [3, 4, 8, 12, 32])
    def test_recursion_invariants(self, m):
        rng = np.random.default_rng(m * 1000 + 7)
        for _ in range(25):
            rho = 10.0 ** rng.uniform(-1, 3)
            g1 = float(np.sort(rng.standard_exponential(m))[0])
            x = rho * g1
            alloc = optimal_m_user(TransmitSnr(rho), g1, m)
            assert abs(float(alloc.alphas.sum()) - 1.0) <= 1e-12
            closed_a1 = np.expm1(np.log1p(x) / m) / x
            assert abs(alloc.alphas[0] - closed_a1) <= 1e-12 * closed_a1
            assert np.all(alloc.alphas > 0.0) and np.all(alloc.alphas < 1.0)

    def test_weakest_rate_pins_to_the_orthogonal_share(self):
        # the split depends only on g1, so this holds for any gain vector
        rng = np.random.default_rng(99)
        for m in (3, 8, 12):
            for _ in range(20):
                rho = 10.0 ** rng.uniform(-1, 3)
                gains = ChannelGains(np.sort(rng.standard_exponential(m)))
                snr = TransmitSnr(rho)
                alloc = optimal_m_user(snr, float(gains.gains[0]), m)
                rates = noma_rates(gains, alloc, snr)
                floors = oma_rates(gains, snr)
                assert abs(rates[0] - floors[0]) <= 1e-9 * floors[0]

    def test_group_sum_beats_orthogonal_sum(self):
        rng = np.random.default_rng(101)
        for m in (3, 8, 12, 32):
            for _ in range(20):
                rho = 10.0 ** rng.uniform(-2, 4)
                gains = ChannelGains(np.sort(rng.standard_exponential(m)))
                snr = TransmitSnr(rho)
                alloc = optimal_m_user(snr, float(gains.gains[0]), m)
                noma = noma_sum_rate(gains, alloc, snr)
                oma = float(np.sum(oma_rates(gains, snr)))
                assert noma >= oma - 1e-9

    def test_stronger_users_are_not_individually_protected(self):
        """Pin a real limitation of the recursive split.

        Sizing every coefficient from the weakest gain guarantees the
        weakest user's share and the group sum, but a user decoded
        early sits behind the whole group's interference and can land
        below its own orthogonal share. With three equal gains at
        rho*g = 7 the strongest user gets log2(4*sqrt(2) - 4), about
        0.7285 bits, against a 1.0 bit orthogonal share.
        """
        snr = TransmitSnr(10.0)
        gains = ChannelGains(np.array([0.7, 0.7, 0.7]))
        alloc = optimal_m_user(snr, 0.7, 3)
        rates = noma_rates(gains, alloc, snr)
        floors = oma_rates(gains, snr)
        assert rates[2] == pytest.approx(np.log2(4.0 * np.sqrt(2.0) - 4.0), rel=1e-12)
        assert floors[2] == pytest.approx(1.0, rel=1e-12)
        assert rates[2] < floors[2] - 0.25

        # spread gains break the floor as well
        spread = ChannelGains(np.array([0.1, 2.0, 2.5]))
        alloc = optimal_m_user(snr, 0.1, 3)
        shortfall = oma_rates(spread, snr)[2] - noma_rates(spread, alloc, snr)[2]
        assert shortfall > 0.5

    @pytest.mark.parametrize("m", [2, 5, 32])
    def test_shares_vectorize_over_snr(self, m):
        xs = np.geomspace(1e-4, 1e5, 9)
        batch = m_user_shares(xs, m)
        assert batch.shape == (9, m)
        for row, x in zip(batch, xs):
            assert np.array_equal(row, m_user_shares(float(x), m))
        grid = m_user_shares(xs.reshape(3, 3), m)
        assert grid.shape == (3, 3, m)
        assert np.array_equal(grid.reshape(9, m), batch)

    @pytest.mark.parametrize("m", [2, 3, 12, 32])
    @pytest.mark.parametrize("shape", [(), (9,), (3, 3)])
    def test_shares_written_into_a_given_buffer_are_a_view_of_it(self, m, shape):
        xs = np.geomspace(1e-4, 1e5, 9)[: math.prod(shape)].reshape(shape)
        for order in ("C", "F"):  # users leading, and the transposed layout
            buf = np.full((m,) + shape, np.nan, order=order)
            shares = m_user_shares(xs, m, out=buf)
            assert np.shares_memory(shares, buf)
            assert np.array_equal(shares, m_user_shares(xs, m))

    @pytest.mark.parametrize("m", [2, 3, 12, 32])
    @pytest.mark.parametrize("shape", [(), (60,), (6, 10)])
    def test_x_as_the_buffers_first_row_gives_the_same_bits(self, m, shape):
        # as `pair_rates` calls it: x is row 0 of `out`, which the shares overwrite
        xs = np.geomspace(1e-4, 1e5, 60)[: math.prod(shape)].reshape(shape)
        expected = m_user_shares(xs, m)
        for order in ("C", "F"):
            buf = np.full((m,) + shape, np.nan, order=order)
            buf[0] = xs
            assert np.array_equal(m_user_shares(buf[0, ...], m, out=buf), expected)
            # the (..., m) layout `pair_rates` hands in, users interleaved
            rows = np.full(shape + (m,), np.nan, order=order)
            rows[..., 0] = xs
            m_user_shares(rows[..., 0], m, out=np.moveaxis(rows, -1, 0))
            assert np.array_equal(rows, expected)

    @pytest.mark.parametrize(
        "out", [np.empty((9, 3)), np.empty((3, 8)), np.empty((3, 9), dtype=np.float32), [0.0] * 27]
    )
    def test_a_buffer_of_the_wrong_shape_or_type_is_rejected(self, out):
        with pytest.raises(ValidationError, match="out must be a float array of shape"):
            m_user_shares(np.geomspace(1e-4, 1e5, 9), 3, out=out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 4, 12, 32])
    def test_shares_match_a_60_digit_reference(self, m):
        xs = np.geomspace(1e-6, 1e300, 61)
        shares = m_user_shares(xs, m)
        for x, row in zip(xs, shares):
            ref = _decimal_shares(float(x), m)
            assert np.all(np.abs(row - ref) <= 1e-13 * ref)

    @pytest.mark.parametrize("m", [3, 12, 32])
    def test_closed_form_is_the_fold_it_telescopes(self, m):
        xs = np.geomspace(1e-6, 1e30, 25)
        for x, row in zip(xs, m_user_shares(xs, m)):
            ref = _decimal_fold(float(x), m)
            assert np.all(np.abs(row - ref) <= 1e-13 * ref)

    def test_two_user_shares_are_the_weak_share_and_its_complement(self):
        xs = np.concatenate(
            [np.geomspace(1e-300, 1e300, 2001), np.random.default_rng(2).uniform(0, 50, 2000)]
        )
        shares = m_user_shares(xs, 2)
        weak = np.expm1(0.5 * np.log1p(xs)) / xs  # (sqrt(1+x) - 1)/x
        assert np.array_equal(shares[..., 0], weak)
        assert np.array_equal(shares[..., 1], 1.0 - weak)

    def test_rejects_tiny_groups(self):
        with pytest.raises(ValidationError):
            optimal_m_user(SNR10, 0.5, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [5e-324, 1e-319, MIN_RECEIVED_SNR * (1 - 2**-52)])
    def test_subnormal_received_snr_is_rejected(self, x):
        # the shares lose precision there, and at 5e-324 they divided 0 by 0
        for m in (2, 3):
            with pytest.raises(ValidationError, match="must be positive, finite and normal"):
                m_user_shares(np.array([1.0, x]), m)
        with pytest.raises(ValidationError, match="must be positive, finite and normal"):
            optimal_m_user(TransmitSnr(1.0), x, 3)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_nonfinite_received_snr_is_rejected(self, x):
        with pytest.raises(ValidationError, match=r"^rho\*g must be positive, finite and normal$"):
            m_user_shares(np.array([1.0, x]), 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [3, 32])
    def test_smallest_normal_received_snr_is_accepted(self, m):
        # r_k is x/k there, so every share is 1/m
        shares = m_user_shares(MIN_RECEIVED_SNR, m)
        assert np.all(np.abs(shares * m - 1.0) <= 1e-12)


def _decimal_shares(x, m):
    """The m-user shares from r_k = (1+x)^(1/k) - 1 (r_1 = x) in 60-digit
    stdlib decimals, by ln and exp: alpha_1 = r_m / r_1 and
    alpha_i = r_m / r_i - r_m / r_{i-1}."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(x)
        log = (1 + x).ln()
        r = [x] + [(log / k).exp() - 1 for k in range(2, m + 1)]
        ratios = [r[-1] / rk for rk in r]
        return np.array([float(ratios[0])] + [float(b - a) for a, b in zip(ratios, ratios[1:])])


def _decimal_fold(x, m):
    """The recursion itself in 60-digit decimals: from the two-user split,
    user k = 3..m takes a_k = (x*a_1 - r_k) / (x*a_1) and every earlier
    share scales by 1 - a_k."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x = decimal.Decimal(x)
        log = (1 + x).ln()
        shares = [((log / 2).exp() - 1) / x]
        shares.append(1 - shares[0])
        for k in range(3, m + 1):
            s = x * shares[0]
            a_k = (s - ((log / k).exp() - 1)) / s
            shares = [a * (1 - a_k) for a in shares] + [a_k]
        return np.array([float(a) for a in shares])


def _best_protected_by_lp(rho, g):
    """Largest sum rate under every user's OMA floor, by linear programming.

    Floor i, 1 + rho*sum_{j<=i} a_j*g_j >= c_i * (1 + rho*sum_{j<i} a_j*g_j)
    with c_i = (1 + rho*g_i)^(1/M), is linear in the fractions, and so is
    the objective sum_i a_i*g_i; nothing here knows the closed form.
    """
    m = g.size
    c = (1.0 + rho * g) ** (1.0 / m)
    a_ub = np.zeros((m, m))
    for i in range(m):
        a_ub[i, :i] = rho * g[:i] * (c[i] - 1.0)
        a_ub[i, i] = -rho * g[i]
    res = linprog(
        -g,
        A_ub=a_ub,
        b_ub=1.0 - c,
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(np.log2(1.0 + rho * float(res.x @ g)))


class TestProtectedMUser:
    def test_equal_gains_hold_every_user_at_its_floor(self):
        # rho*g = 7 gives a cube root of 8, so the running products are 2, 4, 8
        snr = TransmitSnr(10.0)
        gains = ChannelGains(np.array([0.7, 0.7, 0.7]))
        alloc = protected_m_user(snr, gains)
        assert alloc.alphas == pytest.approx([1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0], rel=1e-13)
        assert noma_rates(gains, alloc, snr) == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
        assert oma_rates(gains, snr) == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)

    def test_two_user_case_is_the_two_user_optimum(self):
        for rho, g in [(10.0, (0.35, 0.9)), (0.37, (12.0, 12.0)), (4000.0, (1e-3, 5.0))]:
            snr = TransmitSnr(rho)
            direct = optimal_two_user(snr, g[0])
            protected = protected_m_user(snr, ChannelGains(np.array(g)))
            assert np.array_equal(direct.alphas, protected.alphas)

    @pytest.mark.parametrize("m", [3, 4, 8, 12, 32])
    def test_linear_program_never_beats_closed_form(self, m):
        rng = np.random.default_rng(m * 1000 + 11)
        for _ in range(20):
            rho = 10.0 ** rng.uniform(-1, 3)
            snr = TransmitSnr(rho)
            gains = ChannelGains(np.sort(rng.standard_exponential(m)))
            closed = noma_sum_rate(gains, protected_m_user(snr, gains), snr)
            assert closed == pytest.approx(_best_protected_by_lp(rho, gains.gains), abs=1e-9)
            recursion = optimal_m_user(snr, float(gains.gains[0]), m)
            assert closed >= noma_sum_rate(gains, recursion, snr)

    def test_strongest_user_below_its_floor_raises(self, monkeypatch):
        # equal gains put alpha_M exactly on its floor; a negative tie
        # tolerance turns that tie into the infeasible branch
        monkeypatch.setattr(allocation, "BOUND_TIE_TOL", -1e-9)
        with pytest.raises(allocation.InfeasibleIntervalError):
            protected_m_user(SNR10, ChannelGains(np.array([0.7, 0.7, 0.7])))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho, g", [(1e300, (1e9, 1e10)), (1e-300, (1e-300, 1.0))])
    def test_products_beyond_float_range_are_a_range_error(self, rho, g):
        # rho*g overflowing to inf or underflowing to 0 raises the same error
        # as optimal_m_user, before any RuntimeWarning
        with pytest.raises(ValidationError, match="must be positive, finite and normal"):
            protected_m_user(TransmitSnr(rho), ChannelGains(np.array(g)))
        with pytest.raises(ValidationError, match="must be positive, finite and normal"):
            optimal_m_user(TransmitSnr(rho), g[0], 2)


class TestInputValidation:
    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValidationError):
            optimal_two_user(SNR10, 0.0)
        with pytest.raises(ValidationError):
            optimal_two_user(SNR10, -1.0)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValidationError):
            strong_share_bounds(SNR10, float("nan"), 1.0)
