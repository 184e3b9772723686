"""Deterministic Rayleigh-fading channel draws.

Gains are squared magnitudes of unit-variance circularly symmetric complex
Gaussian coefficients, i.e. independent exponential variates with mean 1,
returned sorted ascending. Reported absolute rates are therefore tied to
this unit-mean normalization.

Streams are counter based: the 64-bit seed keys a Philox generator and the
sweep point selects its counter range, so any trial can be regenerated on
its own and results do not depend on execution order. Trial t of an m-user
draw at point p is words t*m .. t*m+m-1 of the raw stream of a Philox keyed
on the seed with its counter at [0, 0, p, 0]. `sample_gain_rows` reaches a
run of trials in O(1) through `advance`, draws its words in one call, maps
them to exponentials, orders each row (two-user rows by one compare-exchange
written users leading, larger rows by a row sort) and validates the matrix
once; `sample_rayleigh_gains` is its one-row view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelGains, ValidationError, check_gains

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus the (sweep point, trial) stream label."""

    seed: int
    point: int = 0
    trial: int = 0

    def __post_init__(self):
        for name in ("seed", "point", "trial"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if not 0 <= int(value) <= _UINT64_MAX:
                raise ValidationError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, int(value))


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


def sample_gain_rows(m: int, spec: SeedSpec, count: int) -> np.ndarray:
    """Sorted gains of trials spec.trial .. spec.trial+count-1 of (seed, point).

    Returns a (count, m) matrix whose row r holds the m sorted unit-mean
    exponential gains of trial t = spec.trial + r: words t*m .. t*m+m-1 of
    the point's Philox stream, mapped by `unit_exponentials`. At m = 2 it is
    the transposed view of a C-contiguous (2, count) array, so each user's
    column is contiguous for the kernels; larger m are C-contiguous.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise ValidationError(f"m must be an integer >= 2, got {m!r}")
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    m, count, first = int(m), int(count), spec.trial
    if first + count - 1 > _UINT64_MAX:
        raise ValidationError("last trial index must fit in an unsigned 64-bit integer")
    # an array, since numpy reads a list of ints through float64 from 2**63 on
    counter = np.array([0, 0, spec.point, 0], dtype=np.uint64)
    bit_gen = np.random.Philox(key=spec.seed, counter=counter)
    blocks, skip = divmod(first * m, 4)  # Philox emits four words per counter step
    bit_gen.advance(blocks)
    rows = unit_exponentials(bit_gen.random_raw(skip + count * m)[skip:]).reshape(count, m)
    if m == 2:  # one compare-exchange orders a pair, far cheaper than a row sort
        ordered = np.empty((2, count))  # users leading: each user's gains contiguous
        np.minimum(rows[:, 0], rows[:, 1], out=ordered[0])
        np.maximum(rows[:, 0], rows[:, 1], out=ordered[1])
        rows = ordered.T
    else:
        rows.sort(axis=1)
    check_gains(rows)
    return rows


def sample_rayleigh_gains(m: int, spec: SeedSpec) -> ChannelGains:
    """Draw m sorted unit-mean exponential gains from the stream of `spec`."""
    return ChannelGains(sample_gain_rows(m, spec, 1)[0])
