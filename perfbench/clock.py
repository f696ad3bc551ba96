"""A calibrated clock: wall times rescaled to a fixed reference speed.

The CPUs the benchmark was written on switch, every few hundred milliseconds
to tens of seconds, between a fast and a slow state about 2x apart, and the
share of time in each drifts from minute to minute.  A 25 s run's raw timings
therefore move by up to 30 % from run to run on identical code and inputs.

So every timed interval is bracketed by a probe, a fixed piece of work that
nothing in the package can change, timed just before and just after it.  An
interval of `raw` wall seconds between probes of `before` and `after` seconds
reads

    raw * reference_s / ((before + after) / 2)

reference seconds: the time it would take where the probe takes
`reference_s`.  The probe does the same kind of work as what it brackets, so
both slow down alike and the ratio is steady where the raw time is not.
FRACTION, for in-process requests, runs FRACTION_CALLS exact eliminations on a
constant 7x7 rational matrix with the standard library's Fraction, as the
package's own arithmetic does; its reference is 1 ms a call, near the slow
state of that machine.  PROCESS, for child processes, starts a bare
interpreter (`-I -S -c pass`); its reference is 10 ms.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

FRACTION_CALLS = 3
_N = 7
_MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N))
                for i in range(_N))


def _reference_work() -> Fraction:
    """Determinant of _MATRIX by fraction-exact Gaussian elimination."""
    m = [list(row) for row in _MATRIX]
    det = Fraction(1)
    for c in range(_N):
        p = next(r for r in range(c, _N) if m[r][c])
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, _N):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


_DETERMINANT = _reference_work()


def _fraction_work() -> None:
    for _ in range(FRACTION_CALLS):
        if _reference_work() != _DETERMINANT:
            raise RuntimeError("reference computation gave a different determinant")


def _process_work() -> None:
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class Probe:
    """A fixed piece of work whose current time sets the scale of the clock."""

    def __init__(self, work, reference_s: float):
        self.work = work
        self.reference_s = reference_s

    def seconds(self) -> float:
        """Wall seconds the probe takes right now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def rescale(self, raw: float, before: float, after: float) -> float:
        """An interval of `raw` wall seconds between probes `before` and `after`,
        in reference seconds."""
        return raw * self.reference_s / ((before + after) / 2)


# in-process requests: Python-level Fraction arithmetic, like the package's
FRACTION = Probe(_fraction_work, FRACTION_CALLS * 1e-3)
# child processes: a bare interpreter start, for process creation and start-up
PROCESS = Probe(_process_work, 10e-3)
