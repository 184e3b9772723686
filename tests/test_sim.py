"""Monte Carlo sweep tests: determinism, reductions, vectorized-path parity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from uplink_noma import (
    ChannelGains,
    SweepConfig,
    TransmitSnr,
    ValidationError,
    four_user_cases,
    noma_rates,
    noma_sum_rate,
    oma_rates,
    optimal_m_user,
    optimal_two_user,
    run_sweep,
    sample_gain_rows,
    sample_rayleigh_gains,
)
from uplink_noma import sim
from uplink_noma.allocation import m_user_shares
from uplink_noma.cli import main
from uplink_noma.model import (
    LN2, MIN_RECEIVED_SNR, check_received_snr, group_sum_rate, log2_1p,
)
from uplink_noma.sim import MODES, _mean_and_stderr

SMALL_GRID = (-10.0, 0.0, 10.0, 20.0)


def _result_tables_equal(a, b):
    if sorted(a.series) != sorted(b.series):
        return False
    return all(
        np.array_equal(a.series[k], b.series[k]) and np.array_equal(a.stderr[k], b.stderr[k])
        for k in a.series
    )


class TestConfig:
    def test_defaults(self):
        config = SweepConfig(mode="two-user-sum", users=2)
        assert config.snr_db == tuple(float(v) for v in range(-10, 31, 5))
        assert config.trials == 10_000
        assert config.seed == 42

    @pytest.mark.parametrize(
        "mode, users",
        [("two-user-rates", 2), ("two-user-sum", 2), ("four-user-cases", 4), ("m-user-group", 12)],
    )
    def test_users_default_to_the_modes_group_size(self, mode, users):
        config = SweepConfig(mode=mode)
        assert config.users == users
        assert _result_tables_equal(
            run_sweep(SweepConfig(mode=mode, snr_db=(0.0, 10.0), trials=20, seed=1)),
            run_sweep(SweepConfig(mode=mode, users=users, snr_db=(0.0, 10.0), trials=20, seed=1)),
        )

    def test_mode_and_users_must_agree(self):
        with pytest.raises(ValidationError):
            SweepConfig(mode="two-user-sum", users=4)
        with pytest.raises(ValidationError):
            SweepConfig(mode="four-user-cases", users=2)
        with pytest.raises(ValidationError):
            SweepConfig(mode="m-user-group", users=1)
        with pytest.raises(ValidationError):
            SweepConfig(mode="three-user-rates", users=2)

    def test_grid_and_trials_validation(self):
        with pytest.raises(ValidationError):
            SweepConfig(mode="two-user-sum", users=2, snr_db=(0.0, 0.0))
        # an empty grid is refused, and so is a text or bool grid point
        for grid in ((), ("0", "5"), (False, True)):
            with pytest.raises(ValidationError):
                SweepConfig(mode="two-user-sum", users=2, snr_db=grid)
        with pytest.raises(ValidationError):
            SweepConfig(mode="two-user-sum", users=2, trials=0)
        # a bool, float or text is no count and no seed
        for name in ("users", "trials", "seed"):
            for value in (True, False, 1.5, "2"):
                with pytest.raises(ValidationError):
                    SweepConfig(mode="m-user-group", **{name: value})
        config = SweepConfig(
            mode="m-user-group", users=np.int64(3), trials=np.int64(5), seed=np.uint64(1)
        )
        assert (config.users, config.trials, config.seed) == (3, 5, 1)


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        config = SweepConfig(
            mode="four-user-cases", users=4, snr_db=SMALL_GRID, trials=300, seed=9
        )
        assert _result_tables_equal(run_sweep(config), run_sweep(config))

    def test_seed_changes_the_result(self):
        base = SweepConfig(mode="two-user-sum", users=2, snr_db=SMALL_GRID, trials=300, seed=1)
        other = SweepConfig(mode="two-user-sum", users=2, snr_db=SMALL_GRID, trials=300, seed=2)
        assert not _result_tables_equal(run_sweep(base), run_sweep(other))


class TestSingleDrawReductions:
    def test_four_user_single_trial_matches_direct_evaluation(self):
        config = SweepConfig(
            mode="four-user-cases", users=4, snr_db=(4.0,), trials=1, seed=77
        )
        result = run_sweep(config)
        gains = sample_rayleigh_gains(4, 77)
        cases = four_user_cases(gains, TransmitSnr.from_db(4.0))
        assert result.series["case1"][0] == pytest.approx(cases.case1, rel=1e-12)
        assert result.series["case2"][0] == pytest.approx(cases.case2, rel=1e-12)
        assert result.series["case3"][0] == pytest.approx(cases.case3, rel=1e-12)
        assert all(result.stderr[k][0] == 0.0 for k in result.stderr)

    def test_two_user_single_trial_matches_direct_evaluation(self):
        config = SweepConfig(mode="two-user-rates", users=2, snr_db=(6.0,), trials=1, seed=5)
        result = run_sweep(config)
        snr = TransmitSnr.from_db(6.0)
        gains = sample_rayleigh_gains(2, 5)
        alloc = optimal_two_user(snr, float(gains.gains[0]))
        rates = noma_rates(gains, alloc, snr)
        floors = oma_rates(gains, snr)
        assert result.series["R1_noma"][0] == pytest.approx(rates[0], rel=1e-12)
        assert result.series["R2_noma"][0] == pytest.approx(rates[1], rel=1e-12)
        assert result.series["R1_oma"][0] == pytest.approx(floors[0], rel=1e-12)
        assert result.series["R2_oma"][0] == pytest.approx(floors[1], rel=1e-12)

    def test_m_user_single_trial_matches_direct_evaluation(self):
        config = SweepConfig(mode="m-user-group", users=12, snr_db=(10.0,), trials=1, seed=3)
        result = run_sweep(config)
        snr = TransmitSnr.from_db(10.0)
        gains = sample_rayleigh_gains(12, 3)
        alloc = optimal_m_user(snr, float(gains.gains[0]), 12)
        assert result.series["sum_noma"][0] == pytest.approx(
            noma_sum_rate(gains, alloc, snr), rel=1e-12
        )
        assert result.series["sum_oma"][0] == pytest.approx(
            float(np.sum(oma_rates(gains, snr))), rel=1e-12
        )
        # per-draw contract: the weakest of the twelve is held at its 1/12 share
        rates = noma_rates(gains, alloc, snr)
        floors = oma_rates(gains, snr)
        assert abs(rates[0] - floors[0]) <= 1e-9 * floors[0]

    def test_batched_points_match_per_draw_library_path(self):
        config = SweepConfig(mode="two-user-sum", users=2, snr_db=(8.0,), trials=40, seed=21)
        result = run_sweep(config)
        snr = TransmitSnr.from_db(8.0)
        noma, oma = [], []
        for trial in range(40):
            gains = sample_rayleigh_gains(2, 21, trial)
            alloc = optimal_two_user(snr, float(gains.gains[0]))
            noma.append(noma_sum_rate(gains, alloc, snr))
            oma.append(float(np.sum(oma_rates(gains, snr))))
        assert result.series["sum_noma"][0] == pytest.approx(np.mean(noma), rel=1e-12)
        assert result.series["sum_oma"][0] == pytest.approx(np.mean(oma), rel=1e-12)


class TestSweepProperties:
    def test_two_user_rates_keep_weak_equality_and_strong_floor(self):
        config = SweepConfig(mode="two-user-rates", users=2, snr_db=SMALL_GRID, trials=500)
        result = run_sweep(config)
        assert result.series["R1_noma"] == pytest.approx(
            result.series["R1_oma"], rel=1e-12
        )
        assert np.all(result.series["R2_noma"] >= result.series["R2_oma"] - 1e-9)

    def test_sum_mode_never_loses_to_orthogonal(self):
        for mode, users in (("two-user-sum", 2), ("m-user-group", 12)):
            config = SweepConfig(mode=mode, users=users, snr_db=SMALL_GRID, trials=400)
            result = run_sweep(config)
            assert np.all(result.series["sum_noma"] >= result.series["sum_oma"] - 1e-9)

    def test_case_ordering_in_the_mean(self):
        config = SweepConfig(mode="four-user-cases", users=4, snr_db=SMALL_GRID, trials=400)
        result = run_sweep(config)
        assert np.all(result.series["case1"] <= result.series["case2"] + 1e-9)
        assert np.all(result.series["case2"] <= result.series["case3"] + 1e-9)

    def test_doubling_trials_moves_means_within_noise(self):
        small = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=SMALL_GRID, trials=800)
        )
        large = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=SMALL_GRID, trials=1600)
        )
        for key in small.series:
            gap = np.abs(small.series[key] - large.series[key])
            noise = 3.0 * (small.stderr[key] + large.stderr[key])
            assert np.all(gap <= noise)

    def test_standard_errors_shrink_with_more_trials(self):
        small = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=(10.0,), trials=200)
        )
        large = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=(10.0,), trials=3200)
        )
        assert large.stderr["sum_noma"][0] < small.stderr["sum_noma"][0]

    def test_result_series_are_finite_and_nonnegative(self):
        result = run_sweep(
            SweepConfig(mode="m-user-group", users=8, snr_db=SMALL_GRID, trials=100)
        )
        for key in result.series:
            assert np.all(np.isfinite(result.series[key]))
            assert np.all(result.series[key] >= 0.0)
            assert np.all(result.stderr[key] >= 0.0)

    def test_m_user_reduces_to_two_user_at_m_equals_2(self):
        pair_sum = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=(5.0,), trials=300, seed=4)
        )
        group = run_sweep(
            SweepConfig(mode="m-user-group", users=2, snr_db=(5.0,), trials=300, seed=4)
        )
        assert group.series["sum_noma"][0] == pytest.approx(
            pair_sum.series["sum_noma"][0], rel=1e-12
        )
        assert group.series["sum_oma"][0] == pytest.approx(
            pair_sum.series["sum_oma"][0], rel=1e-12
        )

    def test_two_user_sum_is_the_group_sweep_at_two_users(self):
        grid = (-10.0, 5.0, 30.0)
        pair_sum = run_sweep(
            SweepConfig(mode="two-user-sum", users=2, snr_db=grid, trials=300, seed=8)
        )
        group = run_sweep(
            SweepConfig(mode="m-user-group", users=2, snr_db=grid, trials=300, seed=8)
        )
        assert _result_tables_equal(pair_sum, group)


# (mode, users) of every mode, at its required size or a group of 5
_MODE_SIZES = [(mode, size or 5) for mode, (_, size, _) in MODES.items()]


class TestSharedDraw:
    """A sweep draws its gains once, from the seed's stream, and every
    point evaluates its kernel on them."""

    @pytest.mark.parametrize("mode, users", _MODE_SIZES)
    def test_one_draw_per_sweep(self, monkeypatch, mode, users):
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_gain_rows(*args)

        monkeypatch.setattr(sim, "sample_gain_rows", counting)
        run_sweep(SweepConfig(mode=mode, users=users, snr_db=SMALL_GRID, trials=50, seed=3))
        assert calls == [(users, 3, 50)]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_the_received_snr_check_refuses_any_bad_drawn_gain(self, monkeypatch, capsys, bad):
        # the sampler's rows are safe by construction and go unchecked; the
        # sweep's one rho*g check covers every gain of the draw
        def spoiled(*args):
            rows = sample_gain_rows(*args)
            rows[17, 0] = bad
            return rows

        monkeypatch.setattr(sim, "sample_gain_rows", spoiled)
        message = r"^rho\*g must be positive, finite and normal$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=message):
                run_sweep(SweepConfig(mode="two-user-sum", snr_db=SMALL_GRID, trials=50, seed=3))
            code = main(["sweep", "--mode", "two-user-sum", "--trials", "50", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    # the group also at 3, 12 and 130 users: below numpy's unroll of 8, above
    # it, and above its pairwise blocks of 128
    @pytest.mark.parametrize(
        "mode, users", _MODE_SIZES + [("m-user-group", m) for m in (3, 12, 130)]
    )
    def test_a_point_is_the_same_alone_and_inside_a_longer_grid(self, mode, users):
        grid = (-10.0, -2.5, 4.0, 17.0, 30.0)
        whole = run_sweep(SweepConfig(mode=mode, users=users, snr_db=grid, trials=300, seed=6))
        for point, snr_db in enumerate(grid):
            alone = run_sweep(
                SweepConfig(mode=mode, users=users, snr_db=(snr_db,), trials=300, seed=6)
            )
            for key in whole.series:
                assert alone.series[key][0] == whole.series[key][point]
                assert alone.stderr[key][0] == whole.stderr[key][point]


class TestStackedReducer:
    """One reduction for all series equals each series' own 1-d reductions."""

    @pytest.mark.parametrize("trials", [1, 2, 7, 10_000])
    @pytest.mark.parametrize("series", [2, 3, 4])
    @pytest.mark.parametrize("as_rows", [True, False])
    def test_equals_per_series_mean_and_stderr_bit_for_bit(self, trials, series, as_rows):
        # the kernels return the columns of (trials, series) matrices, which
        # are strided views; the transposed matrix itself is strided too
        matrix = np.random.default_rng([trials, series]).exponential(size=(trials, series))
        samples = tuple(matrix.T) if as_rows else matrix.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mean, stderr = _mean_and_stderr(samples)
        columns = [matrix[:, i] for i in range(series)]
        assert np.array_equal(mean, [column.mean() for column in columns])
        if trials == 1:
            assert np.array_equal(stderr, np.zeros(series))
        else:
            expected = [column.std(ddof=1) / math.sqrt(column.size) for column in columns]
            assert np.array_equal(stderr, expected)
            assert np.all(stderr > 0.0)


# (mode, group size) for each kernel at every size it takes of 2, 3, 4, 7, 8,
# 9, 32 and 129: either side of numpy's unroll of 8 and of its pairwise
# blocks of 128, where a sum along a row changes its order
_KERNEL_SIZES = [
    (mode, m) for mode, (_, size, _) in MODES.items() for m in (2, 3, 4, 7, 8, 9, 32, 129)
    if size in (None, m)
]


class TestKernelLayout:
    """Each kernel gives the same bits on the sampler's rows as on a C or a
    Fortran-ordered copy."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, m", _KERNEL_SIZES)
    def test_sampler_rows_and_their_copies_give_the_same_bits(self, mode, m):
        # the sampler's rows are a users-leading view; numpy sums a
        # C-contiguous row of 8 or more in another order than a strided one
        kernel = MODES[mode][2]
        rows = sample_gain_rows(m, 7, 257)
        points = [kernel(r) for r in (rows, np.ascontiguousarray(rows), np.asfortranarray(rows))]
        for rho in (0.1, 10.0, 1e3):
            samples = points[0](rho)
            assert samples.shape == (len(MODES[mode][0]), 257)
            assert samples.flags.c_contiguous  # reduced in place, never copied
            for point in points[1:]:
                assert np.array_equal(point(rho), samples)


class TestGroupKernel:
    """The group kernel's NOMA row is `group_sum_rate` of the shares' products
    with the gains. Its OMA row is the users' natural-log terms log1p(rho*g),
    summed over the users by `np.add.reduce` and then scaled once by
    1/(M ln 2), bit for bit. That row is the users' mean orthogonal rate, the
    mean of their `log2_1p` terms, to within a relative 4*M*eps, from the
    lowest rho that `check_received_snr` accepts for the draw to the highest."""

    @pytest.mark.parametrize(
        "mode, m",
        [(mode, m) for mode, m in _KERNEL_SIZES if mode in ("two-user-sum", "m-user-group")],
    )
    def test_rows_are_the_model_kernels(self, mode, m):
        rows = sample_gain_rows(m, 11, 257)
        users = np.ascontiguousarray(rows.T)
        point = MODES[mode][2](rows)
        eps = np.finfo(float).eps
        lowest = MIN_RECEIVED_SNR / users.min() * (1 + 4 * eps)
        highest = np.finfo(float).max / users.max() * (1 - 4 * eps)
        for rho in (lowest, 0.1, 10.0, 1e3, highest):
            check_received_snr(rho, users)
            shares = m_user_shares(rho * users[0], m).T
            noma = group_sum_rate(rho, shares * users)
            oma = np.add.reduce(np.log1p(rho * users), axis=0) / (m * LN2)
            block = point(rho)
            assert np.array_equal(block[0], noma)
            assert np.array_equal(block[1], oma)
            mean_rate = np.add.reduce(log2_1p(rho * users), axis=0) / m
            assert np.all(np.abs(block[1] - mean_rate) <= 4 * m * eps * mean_rate)


def _nan_filled(allocate):
    def allocate_nan(*args, **kwargs):
        out = allocate(*args, **kwargs)
        out.fill(np.nan)
        return out

    return allocate_nan


class TestWorkspace:
    """A sweep's kernel allocates its block and buffers once; each point
    overwrites them and the reduce works in place on the block."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, users", _MODE_SIZES)
    def test_stale_buffers_give_the_same_bits_as_fresh_ones(self, monkeypatch, mode, users):
        kernel = MODES[mode][2]
        gains = sample_gain_rows(users, 5, 300)
        rhos = (0.1, 10.0, 1e3)
        fresh = {rho: kernel(gains)(rho).copy() for rho in rhos}
        with monkeypatch.context() as patch:  # the block and every buffer start as NaN
            for name in ("empty", "empty_like"):
                patch.setattr(np, name, _nan_filled(getattr(np, name)))
            point = kernel(gains)
        # then each point starts from the last one's buffers, its block
        # holding the squared deviations the reduce leaves
        for rho in rhos + rhos[::-1]:
            block = point(rho)
            assert np.array_equal(block, fresh[rho])
            _mean_and_stderr(block)

    @staticmethod
    def _fresh_bytes(call):
        """Peak bytes one call allocates beyond what is held before it."""
        call()  # numpy's first-call caches
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_a_two_user_rates_point_allocates_at_most_16_bytes_a_trial(self):
        # what is left: one row-length temporary in `sic_rates`
        # (1 + interference)
        trials = 10_000
        point = MODES["two-user-rates"][2](sample_gain_rows(2, 5, trials))
        assert self._fresh_bytes(lambda: point(10.0)) <= 16 * trials

    def test_an_m_user_group_point_allocates_no_row(self):
        # no row-length temporary is left: the shares are differenced and
        # the users summed in the kernel's buffers, without numpy's overlap
        # copy, and log1p(rho*g1) goes straight into the shares buffer
        trials, m = 10_000, 12
        point = MODES["m-user-group"][2](sample_gain_rows(m, 5, trials))
        assert self._fresh_bytes(lambda: point(10.0)) <= trials

    @pytest.mark.parametrize("m", [3, 12, 32])
    def test_an_m_user_group_kernel_allocates_its_block_and_terms_only(self, m):
        # the (2, trials) block and the (m, trials) terms buffer: the users
        # are summed by `np.add.reduce`, which needs no scratch
        trials = 10_000
        gains = sample_gain_rows(m, 5, trials)
        build = MODES["m-user-group"][2]
        assert self._fresh_bytes(lambda: build(gains)) <= 8 * (m + 2) * trials + 4096

    def test_a_four_user_cases_point_allocates_at_most_256_bytes_a_trial(self):
        # what is left peaks inside `pair_rates`, called by `matching_sums`:
        # the six pairs' gathered gains and their rates, 96 bytes a trial
        # each, and a temporary of one value a pair
        trials = 10_000
        point = MODES["four-user-cases"][2](sample_gain_rows(4, 5, trials))
        assert self._fresh_bytes(lambda: point(10.0)) <= 256 * trials

    def test_the_reduce_of_a_block_works_in_place(self):
        trials = 10_000
        block = np.random.default_rng(1).exponential(size=(4, trials))
        assert self._fresh_bytes(lambda: _mean_and_stderr(block)) <= trials


# (mode, users, trials) at which a block holds a few points: every mode at 2,
# 3, 12 and 130 users where it takes them, and a one-trial group, whose
# points stay alone (numpy sums a group's users pairwise over one value)
_BLOCK_CASES = [
    ("two-user-rates", 2, 5000), ("two-user-sum", 2, 5000), ("four-user-cases", 4, 1000),
    ("m-user-group", 2, 5000), ("m-user-group", 3, 5000), ("m-user-group", 12, 2000),
    ("m-user-group", 130, 300), ("m-user-group", 32, 1),
]


class TestBlocks:
    """A sweep walks its grid in blocks of points, one kernel call and one
    reduce each, and every point keeps the bits it has alone."""

    @pytest.mark.parametrize(
        "mode, users, trials, width",
        [("m-user-group", 32, 500, 7), ("two-user-rates", 2, 10_000, 2),
         ("four-user-cases", 4, 10_000, 1), ("m-user-group", 12, 10_000, 1)],
    )
    def test_a_block_is_as_many_points_as_fit_in_block_bytes(self, mode, users, trials, width):
        kernel = MODES[mode][2]
        gains = sample_gain_rows(users, 1, trials)
        assert kernel(gains, 161).width == width
        assert kernel(gains, 1).width == kernel(gains).width == 1  # never past the grid

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, users, trials", _BLOCK_CASES)
    def test_every_point_of_a_ragged_grid_is_the_point_alone(self, mode, users, trials):
        width = MODES[mode][2](sample_gain_rows(users, 6, trials), 1000).width
        assert (width > 1) == (trials > 1)
        for points in sorted({max(1, width - 1), width, width + 1, 2 * width + 1}):
            grid = tuple(np.linspace(-10.0, 30.0, points).tolist())
            whole = run_sweep(
                SweepConfig(mode=mode, users=users, snr_db=grid, trials=trials, seed=6)
            )
            for point, snr_db in enumerate(grid):
                alone = run_sweep(
                    SweepConfig(mode=mode, users=users, snr_db=(snr_db,), trials=trials, seed=6)
                )
                for key in whole.series:
                    assert alone.series[key][0] == whole.series[key][point]
                    assert alone.stderr[key][0] == whole.stderr[key][point]

    @pytest.mark.parametrize("points", [1, 161])
    def test_a_group_sweep_holds_at_most_block_bytes_beyond_its_draw(self, monkeypatch, points):
        # the shape of the benchmark's fine group sweep, and one point of it,
        # which holds one point's workspace. Beside the workspace, numpy's buffered ufunc loops hold up to one buffer of
        # `np.getbufsize()` values an operand while an operation runs, where
        # a loop's contiguous run is shorter than that (here, 500 trials)
        users, trials = 32, 500
        draw = sample_gain_rows(users, 11, trials)
        monkeypatch.setattr(sim, "sample_gain_rows", lambda *args: draw)
        grid = tuple(-10.0 + 0.25 * i for i in range(points))
        config = SweepConfig(mode="m-user-group", users=users, snr_db=grid, trials=trials)
        workspace = 8 * (2 + users) * trials
        budget = workspace if points == 1 else max(workspace, sim.BLOCK_BYTES)
        ufunc_buffers = 3 * 8 * np.getbufsize()
        assert TestWorkspace._fresh_bytes(lambda: run_sweep(config)) <= budget + ufunc_buffers + 4096
