"""Channel sampling tests: determinism, stream separation, distribution."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from uplink_noma import ValidationError, sample_gain_rows, sample_rayleigh_gains
from uplink_noma.channel import unit_exponentials


def _reference_rows(m, seed, first, count):
    """The stream definition drawn the slow way, without `advance`: trial t
    is words t*m .. t*m+m-1 of the seed's stream, so each trial builds its
    own Philox on the counter of the four-word block holding word t*m, found
    by integer arithmetic, skips the t*m % 4 words before it and maps each
    word w to -log(((w >> 12) + 1/2) / 2**52) through Python integers. The
    counter goes in as a uint64 array, because numpy converts a list of
    Python ints through float64 once a value reaches 2**63."""
    rows = []
    for trial in range(first, first + count):
        block, skip = divmod(trial * m, 4)
        counter = np.array([block % 2**64, block >> 64, 0, 0], dtype=np.uint64)
        words = np.random.Philox(key=seed, counter=counter).random_raw(skip + m)[skip:]
        u = np.array([((int(w) >> 12) + 0.5) / 2**52 for w in words])
        rows.append(np.sort(-np.log(u)))
    return np.array(rows)


class TestDeterminism:
    def test_identical_labels_reproduce_the_draw(self):
        a = sample_rayleigh_gains(6, 42, trial=11)
        b = sample_rayleigh_gains(6, 42, trial=11)
        assert np.array_equal(a.gains, b.gains)

    def test_each_label_component_selects_a_new_stream(self):
        base = sample_rayleigh_gains(4, 42, trial=1).gains
        for seed, trial in ((43, 1), (42, 2)):
            assert not np.array_equal(base, sample_rayleigh_gains(4, seed, trial).gains)

    def test_trials_are_order_independent(self):
        forward = [sample_rayleigh_gains(3, 7, t).gains for t in range(20)]
        backward = [sample_rayleigh_gains(3, 7, t).gains for t in reversed(range(20))]
        for f, b in zip(forward, reversed(backward)):
            assert np.array_equal(f, b)


class TestBatchedStream:
    @pytest.mark.parametrize("m", [2, 3, 4, 12, 32])
    @pytest.mark.parametrize(
        "seed, first", [(42, 0), (7, 1234), (2**64 - 1, 2**64 - 50), (2**64 - 1, 2**53 + 1)]
    )
    def test_rows_equal_the_word_offset_reference(self, m, seed, first):
        rows = sample_gain_rows(m, seed, 50, first)
        assert rows.shape == (50, m)
        assert np.array_equal(rows, _reference_rows(m, seed, first, 50))

    def test_word_map_keeps_every_gain_finite_and_positive(self):
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        gains = unit_exponentials(words)
        assert np.all(np.isfinite(gains)) and np.all(gains > 0.0)

    def test_sub_range_is_a_slice_of_the_full_range(self):
        full = sample_gain_rows(5, 9, 300)
        assert np.array_equal(sample_gain_rows(5, 9, 64, first=117), full[117:181])
        assert np.array_equal(sample_rayleigh_gains(5, 9, trial=299).gains, full[299])

    def test_labels_above_2_pow_63_select_their_own_streams(self):
        def draw(trial):
            return sample_rayleigh_gains(4, 1, trial).gains

        assert not np.array_equal(draw(2**64 - 1), draw(0))
        assert not np.array_equal(draw(2**63 + 1), draw(2**63))

    @pytest.mark.parametrize("m", [2, 4])
    def test_peak_memory_is_the_words_plus_the_result(self, m):
        # the raw words are shifted in place and mapped to one float array;
        # at m = 2 the compare-exchange's one-column temporary stays under it
        tracemalloc.start()
        try:
            rows = sample_gain_rows(m, 3, 2**20 // m, first=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * rows.nbytes

    @given(
        m=st.integers(2, 33),
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**64 - 1),
        count=st.integers(1, 200),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_sorted_words_finite_positive_and_ascending(
        self, m, seed, first, count
    ):
        first = min(first, 2**64 - count)
        rows = sample_gain_rows(m, seed, count, first)
        assert rows.shape == (count, m)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)
        assert np.all(np.diff(rows, axis=1) >= 0.0)
        # the same words, drawn and mapped apart from the sampler, then sorted
        bit_gen = np.random.Philox(key=seed, counter=np.zeros(4, dtype=np.uint64))
        blocks, skip = divmod(first * m, 4)
        bit_gen.advance(blocks)
        words = bit_gen.random_raw(skip + count * m)[skip:]
        assert np.array_equal(rows, np.sort(unit_exponentials(words).reshape(count, m), axis=1))

    def test_rejects_empty_and_overflowing_ranges(self):
        for count in (0, -3, 2.0):
            with pytest.raises(ValidationError):
                sample_gain_rows(2, 42, count)
        with pytest.raises(ValidationError):
            sample_gain_rows(2, 42, 3, first=2**64 - 2)
        last = sample_gain_rows(2, 42, 2, first=2**64 - 2)
        assert last.shape == (2, 2)


class TestDrawShape:
    def test_sorted_ascending_and_positive(self):
        gains = sample_rayleigh_gains(32, 0).gains
        assert gains.size == 32
        assert np.all(gains > 0.0)
        assert np.all(np.diff(gains) >= 0.0)

    def test_rejects_tiny_and_invalid_requests(self):
        with pytest.raises(ValidationError):
            sample_rayleigh_gains(1, 42)
        for value in (-1, 2**64, 1.5):
            with pytest.raises(ValidationError, match="seed must"):
                sample_rayleigh_gains(4, value)
            with pytest.raises(ValidationError, match="first must"):
                sample_gain_rows(4, 42, 1, first=value)


class TestDistribution:
    def test_unit_mean(self):
        draws = np.concatenate(
            [sample_rayleigh_gains(10_000, 11, t).gains for t in range(100)]
        )
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_exponential_shape_by_ks(self):
        # sorting does not change the empirical distribution
        draws = np.concatenate(
            [sample_rayleigh_gains(10_000, 13, t).gains for t in range(10)]
        )
        statistic = scipy.stats.kstest(draws, "expon").statistic
        # 1% critical value for n = 1e5
        assert statistic < 1.63 / np.sqrt(draws.size)
