"""Counters for the memory hierarchy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MemStats:
    """Hierarchy-wide event counters.

    ``l1_misses`` counts *primary* data-cache misses — the event that
    triggers an informing memory operation.  Secondary (merged) misses are
    tracked separately because they do not re-trigger the informing
    mechanism in our model: the line fetch they piggyback on has already
    invoked the handler.
    """

    l1_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_secondary_misses: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    prefetches: int = 0
    prefetches_dropped: int = 0
    writebacks_l1: int = 0
    writebacks_l2: int = 0
    bank_conflict_cycles: int = 0
    mshr_stalls: int = 0
    squash_invalidations: int = 0

    @property
    def l1_miss_rate(self) -> float:
        """Primary-miss rate over demand accesses (merges count as misses)."""
        if self.l1_accesses == 0:
            return 0.0
        return (self.l1_misses + self.l1_secondary_misses) / self.l1_accesses
