"""Host-speed reference: a fixed piece of pure-stdlib Python work, timed
between ops, so that the end-to-end times can be given at one nominal speed.

The benchmark runs on a few cores of a shared machine whose speed drifts
with its neighbours' load: on a 2-vCPU VM the same ops ran up to 1.5x slower
for tens of seconds at a time, longer than a run, with CPU time growing as
much as wall time.  This reference, timed next to the ops, slows down in
step with them: over 150 s on that VM, op time rose and fell by 1.43x while
op time / reference time stayed within 7%.  So every op time is reported as
``elapsed * NOMINAL_S / reference``: what the op would take on a host where
the reference takes ``NOMINAL_S``.

The reference imports nothing from the library, so no change to the library
can move it.  Its mix (``Fraction`` arithmetic, tuples, dicts, small-int
loops) is that of the library's own inner loops.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The reference's time on the fast state of a 2-vCPU VM (Python 3.11).
NOMINAL_S = 0.005
# How many reference samples around a window set its speed.
SMOOTH = 6


def reference() -> int:
    """The fixed work; about 5 ms at ``NOMINAL_S``."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        f = Fraction(i, i + 7)
        acc += f * f
        table[(i, i % 13)] = (f.numerator, str(i))
    x = 0
    for i in range(20000):
        x += i * i % 7
    return x + len(table) + acc.denominator % 3


class HostSpeed:
    """Reference samples taken between ops.

    ``sample()`` times the reference once and opens a new window; the work
    done after it belongs to that window.  ``scales()`` gives each window its
    factor ``NOMINAL_S / speed``, where speed is the median of the ``SMOOTH``
    samples nearest the window, so that one noisy sample does not set it.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        start = perf_counter()
        reference()
        self.samples.append(perf_counter() - start)

    @property
    def window(self) -> int:
        return len(self.samples) - 1

    def scales(self) -> list:
        s = self.samples
        n = len(s)
        out = []
        for j in range(n):
            lo = max(0, min(j - SMOOTH // 2 + 1, n - SMOOTH))
            out.append(NOMINAL_S / statistics.median(s[lo:lo + SMOOTH]))
        return out
