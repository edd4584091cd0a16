"""Graduation-slot accounting — the methodology behind Figures 2 and 3.

Each cycle contributes ``issue_width`` graduation slots.  A slot is *busy*
when an instruction graduates in it; a lost slot is charged to *cache stall*
when the oldest unfinished instruction is waiting on a data-cache miss, and
to *other* otherwise.  Normalized execution time between two runs of the
same workload is the ratio of their total slots (equivalently, cycles).

The paper's footnote applies here too: the cache-stall section is a
first-order attribution — miss delays also lengthen later dependence
stalls, which land in *other*.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GraduationStats:
    """Totals for one simulation run."""

    width: int
    cycles: int = 0
    busy_slots: int = 0
    cache_stall_slots: int = 0
    other_stall_slots: int = 0
    app_instructions: int = 0
    handler_instructions: int = 0
    handler_invocations: int = 0
    informing_mispredicts: int = 0
    branch_mispredicts: int = 0

    def record_cycle(self, graduated: int, cache_blame: bool) -> None:
        """Account one cycle: *graduated* slots busy, the rest blamed."""
        if graduated > self.width:
            raise ValueError(
                f"graduated {graduated} exceeds width {self.width}")
        self.cycles += 1
        self.busy_slots += graduated
        lost = self.width - graduated
        if cache_blame:
            self.cache_stall_slots += lost
        else:
            self.other_stall_slots += lost

    def record_cycles(self, cycles: int, busy_slots: int,
                      cache_stall_slots: int, other_stall_slots: int) -> None:
        """Account a block of cycles accumulated by a core's inner loop.

        The cores batch per-cycle slot accounting in local integers (a
        method call per simulated cycle was measurable) and flush here at
        stats-reset boundaries and at end of run.  Equivalent to calling
        :meth:`record_cycle` once per cycle with the same totals.
        """
        if busy_slots + cache_stall_slots + other_stall_slots != (
                cycles * self.width):
            raise ValueError("slot block does not add up to cycles x width")
        self.cycles += cycles
        self.busy_slots += busy_slots
        self.cache_stall_slots += cache_stall_slots
        self.other_stall_slots += other_stall_slots

    @property
    def total_slots(self) -> int:
        return self.cycles * self.width

    @property
    def instructions(self) -> int:
        return self.app_instructions + self.handler_instructions

    @property
    def ipc(self) -> float:
        """Graduated instructions per cycle (busy fraction × width)."""
        if self.cycles == 0:
            return 0.0
        return self.busy_slots / self.cycles

    def breakdown(self) -> dict:
        """Slot fractions in Figure 2's three categories."""
        total = self.total_slots
        if total == 0:
            return {"busy": 0.0, "cache_stall": 0.0, "other_stall": 0.0}
        return {
            "busy": self.busy_slots / total,
            "cache_stall": self.cache_stall_slots / total,
            "other_stall": self.other_stall_slots / total,
        }

    def normalized_to(self, baseline: "GraduationStats") -> float:
        """Execution time of this run relative to *baseline* (same width)."""
        if baseline.width != self.width:
            raise ValueError("runs being compared must share issue width")
        if baseline.cycles == 0:
            raise ValueError("baseline run has no cycles")
        return self.cycles / baseline.cycles


def reset_after_warmup(core) -> GraduationStats:
    """End of a core's warm-up: fresh counters, warm caches, and an
    attached probe drops what it saw (both cores' ``_reset_stats``)."""
    from repro.memory.stats import MemStats

    core.stats = GraduationStats(width=core.config.issue_width)
    hierarchy = core.hierarchy
    hierarchy.stats = MemStats()
    hierarchy.i_accesses = hierarchy.i_misses = 0
    core.engine.invocations = core.engine.injected_instructions = 0
    if hierarchy._probe is not None:
        hierarchy._probe.on_warmup_reset()
    return core.stats
