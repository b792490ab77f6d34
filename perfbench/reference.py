"""Reference seconds: wall times converted at the machine's speed of
the moment.

Next to every timed step the benchmark times :func:`reference_loop`, a
fixed pure-Python loop that uses none of the repository's code. A
step's wall time times ``REFERENCE_S`` over the mean time of the loops
just before and just after it is how long the step would take on a
machine that runs the loop in ``REFERENCE_S``. See ``run.py`` for why.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: iterations of the reference loop
REFERENCE_LOOP = 100_000
#: the reference loop's time at the speed the timings are converted to
REFERENCE_S = 0.02


def reference_loop() -> float:
    """Time one fixed loop of integer arithmetic, dict stores and list
    appends, the interpreter work a rule cascade does (about 20 ms)."""
    began = time.perf_counter()
    total, table, items = 0, {}, []
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
        table[i % 997] = total
        if i % 3 == 0:
            items.append(total)
    return time.perf_counter() - began


@dataclass(frozen=True)
class Timing:
    """One timed step: its wall time, and the mean time of the
    reference loops run just before and just after it."""

    seconds: float
    reference: float

    @property
    def scale(self) -> float:
        """Wall seconds to reference seconds, at this step's speed."""
        return REFERENCE_S / self.reference

    @property
    def normalised(self) -> float:
        return self.seconds * self.scale


class Probe:
    """Times steps between reference loops; consecutive steps share the
    loop between them."""

    def __init__(self) -> None:
        self.last = reference_loop()
        self.loops = [self.last]

    def timed(self, run):
        """``(run(), Timing)``."""
        before = self.last
        began = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - began
        self.last = reference_loop()
        self.loops.append(self.last)
        return result, Timing(elapsed, (before + self.last) / 2)
