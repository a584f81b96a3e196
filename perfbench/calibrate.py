"""A fixed calibration loop that tracks the host's speed.

The host this benchmark was defined on (Intel Xeon at 2.1 GHz, 2 vCPUs
shared with other tenants) changes speed by a factor of 1.4 to 1.8
from one second to the next, so raw wall times of identical work spread
by 30% or more between runs.  Timing this loop right before and right
after each op and scaling the op's wall time by ``NOMINAL_S`` over the
loop's mean time cancels that drift: identical ops then read within a few
percent of each other.  The loop uses the same kinds of work as the
package (Fraction arithmetic, 3x3 numpy calls, dict updates) and nothing
from it, so a change to the package cannot change the loop.

The reading must not depend on the op that ran before it.  A loop timed
in the measured interpreter right after an op read 1-7% slow, by how
much depending on the op (its caches were cold, and it shares the op's
heap and collector).  So the loop runs in a separate interpreter,
:class:`Prober`, and each reading times its second pass, after the first
has reloaded the caches.  ``probe_check.py`` measures what is left of
the dependence.

    python3 perfbench/calibrate.py     # serve readings: one per input line
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# The warmed loop's median time on the host above: calibrated times read
# as wall times on that machine at its median speed.
NOMINAL_S = 1.7e-3
STOP_TIMEOUT_S = 10

_MATRIX = np.eye(3) + 0.1


def _work() -> None:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, 7)
    for _ in range(100):
        np.linalg.inv(_MATRIX)
    counts: dict = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def probe() -> float:
    """Seconds the fixed work takes now, timed on its second pass."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into a
    calibrated time."""
    return NOMINAL_S / (0.5 * (before + after))


class Prober:
    """:func:`probe` in a separate interpreter, so that its reading does
    not share the measured program's heap, allocator or collector.  Use
    as a context manager; calling it returns one reading."""

    def __enter__(self) -> "Prober":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
