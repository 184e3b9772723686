"""Machine-speed calibration for the benchmark's end-to-end times.

The 2-core host the benchmark was tuned on changed speed by up to a third
over minutes, for plain interpreter loops too. That drift swamped run-to-run
differences in raw wall time. So each run interleaves a fixed kernel with
its operations and scales every time it reports by REFERENCE_S / (kernel
time measured next to it): times read in seconds of a machine on which the
kernel takes REFERENCE_S. The kernel does the kinds of work the program
does: Philox and Generator construction, small numpy sorts, a validating
frozen dataclass, and building, formatting and sorting many small Python
objects. Raw wall times are kept in each run's record.
"""

from __future__ import annotations

import bisect
import gc
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# about the kernel's median time on the 2-core host it was tuned on
# (Python 3.11.7, numpy 2.4.6), so scaled times read close to wall times there
REFERENCE_S = 0.5
# operations shorter than this share one calibration sample on each side
EVERY_S = 2.0


@dataclass(frozen=True, eq=False)
class _Draw:
    gains: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.gains)) and np.all(self.gains > 0.0)):
            raise ValueError("calibration draw out of range")


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    gc.collect()
    start = time.perf_counter()
    for i in range(8000):
        rng = np.random.Generator(np.random.Philox(key=1, counter=[0, 0, 0, i]))
        draw = _Draw(np.sort(rng.standard_exponential(2)))
        format(float(draw.gains[0]), ".9g")
    rows = [(f"({i % 12},{7 * i % 12})", format(i / 7.0, ".9g")) for i in range(120_000)]
    rows.sort(key=lambda row: (row[1], row[0]))
    return time.perf_counter() - start


class Calibration:
    """Kernel samples taken between timed work, and the scale for each piece of it.

    The kernel runs in a child process that lives as long as this context,
    so its memory does not count in the benchmark's peak RSS. The child
    inherits the parent's CPU affinity; pin the parent first, so that the
    kernel measures the CPU the timed work runs on.
    """

    def __init__(self):
        self.at, self.seconds = [], []
        self._child = None

    def __enter__(self):
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()
        return False

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.seconds.append(float(self._child.stdout.readline()))

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= EVERY_S

    def scale(self, started: float) -> float:
        """REFERENCE_S over the mean kernel time just before and just after `started`."""
        after = bisect.bisect(self.at, started)
        if not 0 < after < len(self.at):
            raise ValueError("timed work needs a calibration sample on each side")
        return 2.0 * REFERENCE_S / (self.seconds[after - 1] + self.seconds[after])


if __name__ == "__main__":
    # child side: one kernel run per line read, until stdin closes
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
