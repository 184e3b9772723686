"""Deterministic Rayleigh-fading channel draws.

Gains are squared magnitudes of unit-variance circularly symmetric complex
Gaussian coefficients, i.e. independent exponential variates with mean 1,
returned sorted ascending. Reported absolute rates are therefore tied to
this unit-mean normalization.

Streams are counter based: the 64-bit seed keys a Philox generator with its
counter at zero, so any trial can be regenerated on its own and results do
not depend on execution order. Trial t of an m-user draw is words
t*m .. t*m+m-1 of that generator's raw stream. A sweep draws once and shares
that matrix across its SNR grid, since the gains do not depend on the SNR
(see `sim`). `sample_gain_rows` reaches a run of trials in O(1) through
`advance`, draws its words in one call, maps them to exponentials, orders
each row (two-user rows by one compare-exchange, larger rows by a row
sort) and writes the matrix users leading; the mapping and the ordering
make every row finite, positive and ascending. `sample_rayleigh_gains` is
its one-row view.
"""

from __future__ import annotations

import numpy as np

from .model import ChannelGains, check_integer


def unit_exponentials(words: np.ndarray) -> np.ndarray:
    """Unit-mean exponentials -log(u) of raw 64-bit words by the inverse CDF,
    at u = ((w >> 12) + 1/2) / 2**52: exact in a float and strictly inside
    (0, 1), so every gain is finite and at least about 1.1e-16. Consumes
    `words` (shifted in place); the peak is the words plus the result."""
    gains = np.right_shift(words, 12, out=words).astype(float)
    gains += 0.5
    gains *= 2.0**-52
    np.log(gains, out=gains)
    return np.negative(gains, out=gains)


def sample_gain_rows(m: int, seed: int, count: int, first: int = 0) -> np.ndarray:
    """Sorted gains of trials first .. first+count-1 of the seed's stream.

    Returns a (count, m) matrix whose row r holds the m sorted unit-mean
    exponential gains of trial t = first + r: words t*m .. t*m+m-1 of the
    seed's Philox stream, mapped by `unit_exponentials`: the rows are ordered,
    then written once users leading, as the transposed view of a C-contiguous
    (m, count) array, so each user's column is contiguous for the kernels.
    Each row is finite, positive and ascending by construction.
    """
    m, count = check_integer("m", m, 2), check_integer("count", count, 1)
    seed, first = check_integer("seed", seed, 0), check_integer("first", first, 0)
    check_integer("last trial index", first + count - 1, 0)
    bit_gen = np.random.Philox(key=seed)  # counter at zero
    blocks, skip = divmod(first * m, 4)  # Philox emits four words per counter step
    bit_gen.advance(blocks)
    rows = unit_exponentials(bit_gen.random_raw(skip + count * m)[skip:]).reshape(count, m)
    ordered = np.empty((m, count))  # users leading: each user's gains contiguous
    if m == 2:  # one compare-exchange orders a pair, far cheaper than a row sort
        np.minimum(rows[:, 0], rows[:, 1], out=ordered[0])
        np.maximum(rows[:, 0], rows[:, 1], out=ordered[1])
    else:
        rows.sort(axis=1)
        # in blocks of 1,024 trials: one transposed copy of the whole matrix
        # walks it a user at a time, several times slower at 10^5 trials
        for first_row in range(0, count, 1024):
            block = slice(first_row, first_row + 1024)
            ordered[:, block] = rows[block].T
    return ordered.T


def sample_rayleigh_gains(m: int, seed: int, trial: int = 0) -> ChannelGains:
    """Draw m sorted unit-mean exponential gains: trial `trial` of the seed's stream."""
    return ChannelGains(sample_gain_rows(m, seed, 1, trial)[0])
