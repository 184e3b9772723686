"""Channel sampling tests: determinism, stream separation, distribution."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from uplink_noma import SeedSpec, ValidationError, sample_gain_rows, sample_rayleigh_gains
from uplink_noma.channel import unit_exponentials


def _reference_rows(m, seed, point, first, count):
    """The stream definition drawn the slow way, without `advance`: trial t
    is words t*m .. t*m+m-1 of the point's stream, so each trial builds its
    own Philox on the counter of the four-word block holding word t*m, found
    by integer arithmetic, skips the t*m % 4 words before it and maps each
    word w to -log(((w >> 12) + 1/2) / 2**52) through Python integers. The
    counter goes in as a uint64 array, because numpy converts a list of
    Python ints through float64 once a value reaches 2**63."""
    rows = []
    for trial in range(first, first + count):
        block, skip = divmod(trial * m, 4)
        counter = np.array([block % 2**64, block >> 64, point, 0], dtype=np.uint64)
        words = np.random.Philox(key=seed, counter=counter).random_raw(skip + m)[skip:]
        u = np.array([((int(w) >> 12) + 0.5) / 2**52 for w in words])
        rows.append(np.sort(-np.log(u)))
    return np.array(rows)


class TestDeterminism:
    def test_identical_labels_reproduce_the_draw(self):
        a = sample_rayleigh_gains(6, SeedSpec(42, point=3, trial=11))
        b = sample_rayleigh_gains(6, SeedSpec(42, point=3, trial=11))
        assert np.array_equal(a.gains, b.gains)

    def test_each_label_component_selects_a_new_stream(self):
        base = sample_rayleigh_gains(4, SeedSpec(42, point=1, trial=1)).gains
        for spec in (SeedSpec(43, 1, 1), SeedSpec(42, 2, 1), SeedSpec(42, 1, 2)):
            assert not np.array_equal(base, sample_rayleigh_gains(4, spec).gains)

    def test_trials_are_order_independent(self):
        forward = [sample_rayleigh_gains(3, SeedSpec(7, 0, t)).gains for t in range(20)]
        backward = [
            sample_rayleigh_gains(3, SeedSpec(7, 0, t)).gains for t in reversed(range(20))
        ]
        for f, b in zip(forward, reversed(backward)):
            assert np.array_equal(f, b)


class TestBatchedStream:
    @pytest.mark.parametrize("m", [2, 3, 4, 12, 32])
    @pytest.mark.parametrize(
        "seed, point, first",
        [(42, 0, 0), (7, 3, 1234), (2**64 - 1, 2**63 + 5, 2**64 - 50), (2**64 - 1, 2**40, 2**53 + 1)],
    )
    def test_rows_equal_the_word_offset_reference(self, m, seed, point, first):
        rows = sample_gain_rows(m, SeedSpec(seed, point, first), 50)
        assert rows.shape == (50, m)
        assert np.array_equal(rows, _reference_rows(m, seed, point, first, 50))

    def test_word_map_keeps_every_gain_finite_and_positive(self):
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        gains = unit_exponentials(words)
        assert np.all(np.isfinite(gains)) and np.all(gains > 0.0)

    def test_sub_range_is_a_slice_of_the_full_range(self):
        full = sample_gain_rows(5, SeedSpec(9, 2, 0), 300)
        assert np.array_equal(sample_gain_rows(5, SeedSpec(9, 2, 117), 64), full[117:181])
        assert np.array_equal(sample_rayleigh_gains(5, SeedSpec(9, 2, 299)).gains, full[299])

    def test_labels_above_2_pow_63_select_their_own_streams(self):
        def draw(point, trial):
            return sample_rayleigh_gains(4, SeedSpec(1, point, trial)).gains

        assert not np.array_equal(draw(0, 2**64 - 1), draw(0, 0))
        assert not np.array_equal(draw(0, 2**63 + 1), draw(0, 2**63))
        assert not np.array_equal(draw(2**63 + 1, 0), draw(2**63, 0))

    def test_peak_memory_is_the_words_plus_the_result(self):
        # the raw words are shifted in place and mapped to one float array
        tracemalloc.start()
        try:
            rows = sample_gain_rows(4, SeedSpec(3, 1, 7), 2**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * rows.nbytes

    def test_rejects_empty_and_overflowing_ranges(self):
        for count in (0, -3, 2.0):
            with pytest.raises(ValidationError):
                sample_gain_rows(2, SeedSpec(42), count)
        with pytest.raises(ValidationError):
            sample_gain_rows(2, SeedSpec(42, 0, 2**64 - 2), 3)
        last = sample_gain_rows(2, SeedSpec(42, 0, 2**64 - 2), 2)
        assert last.shape == (2, 2)


class TestDrawShape:
    def test_sorted_ascending_and_positive(self):
        gains = sample_rayleigh_gains(32, SeedSpec(0)).gains
        assert gains.size == 32
        assert np.all(gains > 0.0)
        assert np.all(np.diff(gains) >= 0.0)

    def test_rejects_tiny_and_invalid_requests(self):
        with pytest.raises(ValidationError):
            sample_rayleigh_gains(1, SeedSpec(42))
        with pytest.raises(ValidationError):
            SeedSpec(-1)
        with pytest.raises(ValidationError):
            SeedSpec(2**64)
        with pytest.raises(ValidationError):
            SeedSpec(1.5)


class TestDistribution:
    def test_unit_mean(self):
        draws = np.concatenate(
            [sample_rayleigh_gains(10_000, SeedSpec(11, 0, t)).gains for t in range(100)]
        )
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_exponential_shape_by_ks(self):
        # sorting does not change the empirical distribution
        draws = np.concatenate(
            [sample_rayleigh_gains(10_000, SeedSpec(13, 0, t)).gains for t in range(10)]
        )
        statistic = scipy.stats.kstest(draws, "expon").statistic
        # 1% critical value for n = 1e5
        assert statistic < 1.63 / np.sqrt(draws.size)
