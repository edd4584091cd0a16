"""Host-speed reference: a fixed pure-Python integer loop.

The benchmark runs on shared, noisy hosts whose speed drifts between
runs and between sittings.  Every host time it reports is therefore
scaled to a fixed nominal host speed::

    normalized = raw * (NOMINAL_REF_MS / median reference-loop time)

The loop is timed between operations, while no program code runs, so
it samples the same host conditions the operations ran under.  The
host's speed drifts within a run too, so each stretch of measured time
is scaled by the median of the samples taken around it
(:meth:`HostRef.factor_at`), not by one median for the whole run: on
ten runs of the vec grid on a noisy 2-vCPU VM this cut the run-to-run
coefficient of variation of the normalized wall from 3.8% to 2.4%
(12.5% raw).

This module imports nothing from the program under test: a change to
the program can never change the yardstick.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable, List

#: Iterations of one reference-loop sample (about 2.8 ms on the 2-vCPU
#: x86-64 VM the nominal speed was taken on).
REF_ITERS = 20_000

#: The reference loop's median time on that VM, in milliseconds.  A
#: host that runs the loop in exactly this time reports raw times
#: unchanged; a host twice as slow has its times halved.
NOMINAL_REF_MS = 2.75

#: Samples on each side of a stretch of time that set its factor.
LOCAL_WINDOW = 5

def ref_loop(iters: int = REF_ITERS) -> float:
    """Run the reference loop once; return its wall time in seconds."""
    x = 1
    start = time.perf_counter()
    for _ in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    elapsed = time.perf_counter() - start
    if x < 0:  # never true; keeps the loop's result live
        raise AssertionError(x)
    return elapsed


class HostRef:
    """Collects reference-loop samples and normalizes host times."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        #: Total seconds spent inside the loop (excluded from walls).
        self.spent_s = 0.0

    def sample(self, count: int = 1) -> float:
        """Time the loop *count* times; return the seconds spent."""
        spent = 0.0
        for _ in range(count):
            dt = ref_loop()
            self.samples_ms.append(dt * 1e3)
            spent += dt
        self.spent_s += spent
        return spent

    @property
    def last(self) -> int:
        """Index of the latest sample."""
        if not self.samples_ms:
            raise ValueError("no reference-loop samples taken")
        return len(self.samples_ms) - 1

    def extend(self, samples_ms: Iterable[float]) -> None:
        """Pool samples taken in a child process."""
        self.samples_ms.extend(samples_ms)

    def median_ms(self) -> float:
        if not self.samples_ms:
            raise ValueError("no reference-loop samples taken")
        return statistics.median(self.samples_ms)

    def factor_at(self, index: int, window: int = LOCAL_WINDOW) -> float:
        """Factor for time measured next to sample *index*: from the
        median of the samples within *window* places of it."""
        if not 0 <= index < len(self.samples_ms):
            raise IndexError(f"no reference sample {index}")
        nearby = self.samples_ms[max(0, index - window):index + window + 1]
        return normalization_factor(statistics.median(nearby))


def normalization_factor(ref_median_ms: float) -> float:
    """``nominal / measured``: above 1 on a host faster than nominal,
    below 1 on a slower one."""
    if ref_median_ms <= 0:
        raise ValueError(f"reference median must be positive, got "
                         f"{ref_median_ms!r}")
    return NOMINAL_REF_MS / ref_median_ms
