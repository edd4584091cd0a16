"""Bandwidth-limited main memory (Table 1: one access per 20 cycles)."""

from __future__ import annotations


class MainMemory:
    """Serialises accesses at a fixed issue rate.

    The model matches the paper's single "main memory bandwidth" row: a new
    access may begin at most every ``cycles_per_access`` cycles; an access
    arriving while the port is busy queues behind the previous one.
    """

    def __init__(self, cycles_per_access: int = 20) -> None:
        if cycles_per_access < 1:
            raise ValueError("cycles_per_access must be positive")
        self.cycles_per_access = cycles_per_access
        self._next_free = 0
        self.accesses = 0
        self.queued_cycles = 0  # total cycles accesses waited for the port

    def schedule(self, cycle: int) -> int:
        """Reserve the port for an access arriving at *cycle*.

        Returns the cycle at which the access actually starts (>= cycle).
        """
        start = max(cycle, self._next_free)
        self.queued_cycles += start - cycle
        self._next_free = start + self.cycles_per_access
        self.accesses += 1
        return start
