"""Deterministic Rayleigh-fading channel draws.

Gains are squared magnitudes of unit-variance circularly symmetric complex
Gaussian coefficients, i.e. independent exponential variates with mean 1,
returned sorted ascending. Reported absolute rates are therefore tied to
this unit-mean normalization.

Streams are counter based: the 64-bit seed keys a Philox generator and the
(sweep point, trial) labels select disjoint counter blocks, so any trial
can be regenerated on its own and results do not depend on execution order.
Trial t of point p is the stream of a Philox keyed on the seed whose
counter starts at [0, 0, p, t]. `sample_gain_rows` draws a run of
consecutive trials from one keyed generator, moving its counter to each
trial's block instead of building a generator per trial, and validates
the sorted matrix once; `sample_rayleigh_gains` is its one-row view.
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


def sample_gain_rows(m: int, spec: SeedSpec, count: int) -> np.ndarray:
    """Sorted gains of trials spec.trial .. spec.trial+count-1 of (seed, point).

    Returns a (count, m) matrix whose row r holds the m sorted unit-mean
    exponential gains of trial spec.trial + r, each row equal to a draw
    from a Philox built fresh on that trial's counter block.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise ValidationError(f"m must be an integer >= 2, got {m!r}")
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    m, count, first = int(m), int(count), spec.trial
    if first + count - 1 > _UINT64_MAX:
        raise ValidationError("last trial index must fit in an unsigned 64-bit integer")
    bit_gen = np.random.Philox(key=spec.seed)
    rng = np.random.Generator(bit_gen)
    # a fresh generator's state (empty output buffer, no cached 32-bit half),
    # held in lists, which the state setter reads twice as fast as arrays
    state = bit_gen.state
    state["state"]["key"] = state["state"]["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"] = [0, 0, spec.point, first]
    rows = np.empty((count, m))
    for trial, row in enumerate(rows, start=first):
        counter[3] = trial
        bit_gen.state = state
        rng.standard_exponential(out=row)
    rows.sort(axis=1)
    check_gains(rows)
    return rows


def sample_rayleigh_gains(m: int, spec: SeedSpec) -> ChannelGains:
    """Draw m sorted unit-mean exponential gains from the stream of `spec`."""
    return ChannelGains(sample_gain_rows(m, spec, 1)[0])
