"""The invariant catalog and the :class:`Sanitizer` that enforces it.

The simulator's correctness story rests on microarchitectural invariants
the paper states but the code normally trusts blindly: MSHR lifetimes,
squash-path invalidation of speculatively filled L1 lines, and trap
entry only on a genuine primary-cache miss.  The sanitizer is a
runtime checking layer for those invariants — off by default, enabled
per run by attaching a :class:`Sanitizer` to a core or hierarchy
(``--sanitize`` at the harness level).

The sanitizer is a :class:`repro.probe.Probe`: its hooks sit in the
components and in both backends' cycle loops, and cost one
``if probe is not None`` when no instrument is attached.  Checks are
read-only — they never touch recency order or any other stateful path —
so golden parity stays bit-exact with the sanitizer enabled.

Per-access work is throttled: full tag-store/MSHR sweeps run every
``every`` data accesses (default :data:`DEFAULT_EVERY`), so corruption
is detected within a bounded window while keeping the enabled-mode
overhead small.  Event-driven checks (fills, MSHR transitions, trap
entries, squash releases) always run — they are rare and they are where
the paper's invariants actually live.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.mechanisms import return_pc
from repro.probe import Probe
from repro.sanitize.violation import InvariantViolation

#: Data accesses between periodic full sweeps of the L1 tag store and
#: the MSHR file.  1 checks on every access (tests); larger values bound
#: detection latency at `every` accesses for a fraction of the cost.
DEFAULT_EVERY = 512

#: The invariant catalog: name -> what must hold.  Violations name one
#: of these keys; the chaos suite asserts every fault class is caught by
#: a named entry (see :data:`repro.sanitize.chaos.CAUGHT_BY`).
INVARIANTS: Dict[str, str] = {
    "cache.set_occupancy":
        "a set never holds more resident lines than its associativity",
    "cache.tag_home_set":
        "every resident line address maps to the set that holds it "
        "(a line in a foreign set is a duplicate/corrupt tag)",
    "cache.duplicate_line":
        "no line address is resident in more than one set of a cache "
        "(recency order is a permutation of distinct residents)",
    "mshr.occupancy_bound":
        "the MSHR file never holds more entries than it has registers",
    "mshr.no_leaked_entries":
        "a filled, unpinned MSHR retires at fill time; one still "
        "resident afterwards is a leaked register",
    "mshr.no_duplicate_lines":
        "at most one in-flight (unfilled) MSHR exists per line address",
    "mshr.line_map_consistent":
        "the line->entry merge map points only at live, unfilled "
        "entries for that exact line",
    "mshr.drained":
        "after a run drains, every surviving MSHR is either awaiting a "
        "scheduled fill or pinned by an extended lifetime",
    "pipeline.head_monotonic":
        "commit/graduation sequence numbers strictly increase "
        "(ROB head never moves backwards)",
    "pipeline.issued_before_graduated":
        "an instruction graduates only once issued and complete "
        "(complete_cycle <= current cycle)",
    "pipeline.no_graduation_past_trap":
        "no instruction younger than an unresolved informing trap's "
        "reference commits before the trap fires",
    "informing.trap_iff_miss":
        "the informing mechanism is invoked only for references whose "
        "hit/miss signal says miss (handler entered iff miss)",
    "informing.mhar_disabled_no_trap":
        "MHAR == 0 (or an inactive mechanism) never enters a handler",
    "informing.mhrr_return_pc":
        "at handler entry the MHRR holds the informing reference's "
        "successor PC",
    "informing.squash_invalidates_l1":
        "a squashed informing reference whose fill already happened "
        "leaves the L1 line invalid (the line may stay in L2)",
}


class Sanitizer(Probe):
    """Runtime invariant checker attached to one core + hierarchy.

    Attach with :meth:`attach` (a core) or :meth:`attach_hierarchy`
    (memory system only, L1I included).  Any failed check raises
    :class:`InvariantViolation` immediately.

    Attributes:
        every: accesses between periodic full sweeps.
        cycle: the most recent simulation cycle any hook reported
            (violation context; -1 before the first hook).
        hook_calls / full_sweeps / checks_passed: cheap counters proving
            the checks actually ran (the chaos suite asserts they are
            not vacuous).
    """

    watches_icache = True

    def __init__(self, every: int = DEFAULT_EVERY) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.cycle = -1
        self.hook_calls = 0
        self.full_sweeps = 0
        self.checks_passed = 0
        self._tick = 0
        self._last_commit_seq = 0

    def attach(self, core) -> Any:
        """Wire this sanitizer into *core*'s memory hierarchy."""
        self._last_commit_seq = 0
        return super().attach(core)

    # -- violation plumbing --------------------------------------------------
    def _violate(self, invariant: str, component: str, message: str,
                 snapshot: Optional[Dict[str, Any]] = None) -> None:
        raise InvariantViolation(invariant, component, self.cycle, message,
                                 snapshot)

    # -- cache checks --------------------------------------------------------
    def check_cache_set(self, cache, index: int) -> None:
        """Occupancy and tag-home consistency of one set."""
        self.hook_calls += 1
        cache_set = cache._sets[index]
        if len(cache_set) > cache._assoc:
            self._violate(
                "cache.set_occupancy", cache.name,
                f"set {index} holds {len(cache_set)} lines "
                f"(associativity {cache._assoc})",
                {"set": index, "lines": [hex(l) for l in cache_set]})
        mask = cache._set_mask
        for line in cache_set:
            if line & mask != index:
                self._violate(
                    "cache.tag_home_set", cache.name,
                    f"line {line:#x} resident in set {index} but homes "
                    f"to set {line & mask}",
                    {"set": index, "line": hex(line),
                     "home_set": line & mask})
        self.checks_passed += 1

    def check_cache(self, cache) -> None:
        """Full sweep: every created set in index order, plus the
        cross-set duplicate scan (a set never touched holds nothing).

        One flat loop rather than a :meth:`check_cache_set` call per set:
        large L2 tag stores make the per-set call overhead the dominant
        sweep cost.
        """
        self.hook_calls += 1
        assoc = cache._assoc
        mask = cache._set_mask
        seen: Dict[int, int] = {}
        for index, cache_set in sorted(cache._sets.items()):
            if len(cache_set) > assoc:
                self._violate(
                    "cache.set_occupancy", cache.name,
                    f"set {index} holds {len(cache_set)} lines "
                    f"(associativity {assoc})",
                    {"set": index, "lines": [hex(l) for l in cache_set]})
            for line in cache_set:
                if line & mask != index:
                    self._violate(
                        "cache.tag_home_set", cache.name,
                        f"line {line:#x} resident in set {index} but "
                        f"homes to set {line & mask}",
                        {"set": index, "line": hex(line),
                         "home_set": line & mask})
                if line in seen:
                    self._violate(
                        "cache.duplicate_line", cache.name,
                        f"line {line:#x} resident in sets {seen[line]} "
                        f"and {index}",
                        {"line": hex(line), "sets": [seen[line], index]})
                seen[line] = index
        self.checks_passed += 1

    # -- MSHR checks ---------------------------------------------------------
    def check_mshr_file(self, mshrs) -> None:
        """Structural consistency of the whole MSHR file (it is tiny)."""
        self.hook_calls += 1
        entries = mshrs._entries
        if len(entries) > mshrs.count:
            self._violate(
                "mshr.occupancy_bound", "MSHR",
                f"{len(entries)} entries in a {mshrs.count}-register file",
                {"occupancy": len(entries), "count": mshrs.count})
        unfilled_lines: Dict[int, int] = {}
        for entry in entries.values():
            if entry.filled and not entry.pinned:
                self._violate(
                    "mshr.no_leaked_entries", "MSHR",
                    f"entry {entry.mshr_id} (line {entry.line_addr:#x}) is "
                    f"filled and unpinned but still resident",
                    self._mshr_snapshot(entry))
            if not entry.filled:
                if entry.line_addr in unfilled_lines:
                    self._violate(
                        "mshr.no_duplicate_lines", "MSHR",
                        f"entries {unfilled_lines[entry.line_addr]} and "
                        f"{entry.mshr_id} both in flight for line "
                        f"{entry.line_addr:#x}",
                        self._mshr_snapshot(entry))
                unfilled_lines[entry.line_addr] = entry.mshr_id
                mapped = mshrs._by_line.get(entry.line_addr)
                if mapped is not entry:
                    self._violate(
                        "mshr.line_map_consistent", "MSHR",
                        f"unfilled entry {entry.mshr_id} for line "
                        f"{entry.line_addr:#x} is not the merge target for "
                        f"its line",
                        self._mshr_snapshot(entry))
        for line, entry in mshrs._by_line.items():
            if (entries.get(entry.mshr_id) is not entry
                    or entry.line_addr != line or entry.filled):
                self._violate(
                    "mshr.line_map_consistent", "MSHR",
                    f"line map for {line:#x} points at a retired, filled "
                    f"or mismatched entry",
                    self._mshr_snapshot(entry))
        self.checks_passed += 1

    @staticmethod
    def _mshr_snapshot(entry) -> Dict[str, Any]:
        return {"mshr_id": entry.mshr_id, "line": hex(entry.line_addr),
                "filled": entry.filled, "pinned": entry.pinned,
                "merged": entry.merged, "informed": entry.informed}

    # -- component hooks -----------------------------------------------------
    def on_access(self, hierarchy, cycle: int) -> None:
        """Per data access: update cycle context, periodic full sweep."""
        self.cycle = cycle
        self._tick += 1
        if self._tick >= self.every:
            self._tick = 0
            self.full_sweeps += 1
            # The L2 full sweep is deferred to on_run_end: its tag store
            # is three orders of magnitude larger than the L1's, and L2
            # fills are still set-checked as they happen.
            self.check_cache(hierarchy.l1)
            self.check_mshr_file(hierarchy.mshrs)

    def on_fill(self, cache, set_index: int, line_addr: int,
                victim) -> None:
        self.check_cache_set(cache, set_index)

    def on_invalidate(self, cache, set_index: int, line_addr: int) -> None:
        self.check_cache_set(cache, set_index)

    def on_mshr_alloc(self, mshrs, entry) -> None:
        self.check_mshr_file(mshrs)

    def on_mshr_fill(self, mshrs, entry) -> None:
        self.check_mshr_file(mshrs)

    def on_mshr_release(self, hierarchy, entry, squashed: bool) -> None:
        """The MSHR file after a release, and the Section 3.3
        post-condition of a squash."""
        self.check_mshr_file(hierarchy.mshrs)
        self.hook_calls += 1
        if squashed and entry.filled:
            byte_addr = entry.line_addr << hierarchy._line_shift
            if hierarchy.l1.contains(byte_addr):
                self._violate(
                    "informing.squash_invalidates_l1", "MSHR",
                    f"squashed entry {entry.mshr_id} had filled but line "
                    f"{entry.line_addr:#x} is still resident in L1",
                    self._mshr_snapshot(entry))
        self.checks_passed += 1

    def on_inform_signal(self, result) -> None:
        """A reference is about to arm the informing mechanism."""
        self.hook_calls += 1
        if not result.l1_miss:
            self._violate(
                "informing.trap_iff_miss", "hierarchy",
                "informing signalled for a reference whose hit/miss "
                "signal says hit",
                {"level": result.level, "l1_miss": result.l1_miss,
                 "needs_inform": result.needs_inform,
                 "mshr_id": result.mshr_id})
        self.checks_passed += 1

    def on_trap(self, engine, pc: int, addr: int, cycle: int,
                handler_len: int) -> None:
        """A miss handler is being entered for the reference at *pc*."""
        self.hook_calls += 1
        self.cycle = cycle
        if engine.mhar == 0 or not engine.config.active:
            self._violate(
                "informing.mhar_disabled_no_trap", "engine",
                f"handler entered for pc {pc:#x} with MHAR == "
                f"{engine.mhar:#x} (active={engine.config.active})",
                {"pc": hex(pc), "mhar": engine.mhar})
        expected = return_pc(pc)
        if engine.mhrr != expected:
            self._violate(
                "informing.mhrr_return_pc", "engine",
                f"MHRR is {engine.mhrr:#x} at handler entry; the "
                f"informing reference at {pc:#x} requires "
                f"{expected:#x}",
                {"pc": hex(pc), "mhrr": hex(engine.mhrr),
                 "expected": hex(expected)})
        self.checks_passed += 1

    def on_commit(self, seq: int, complete_cycle: Optional[int], cycle: int,
                  handler: bool, trap_seq: Optional[int]) -> None:
        """One instruction committing (in-order) or graduating (OoO)."""
        self.hook_calls += 1
        self.cycle = cycle
        if seq <= self._last_commit_seq:
            self._violate(
                "pipeline.head_monotonic", "pipeline",
                f"commit seq {seq} after {self._last_commit_seq}",
                {"seq": seq, "last": self._last_commit_seq})
        self._last_commit_seq = seq
        if complete_cycle is None or complete_cycle > cycle:
            self._violate(
                "pipeline.issued_before_graduated", "pipeline",
                f"seq {seq} committing at cycle {cycle} before its "
                f"completion cycle {complete_cycle}",
                {"seq": seq, "complete_cycle": complete_cycle})
        if trap_seq is not None and seq > trap_seq:
            self._violate(
                "pipeline.no_graduation_past_trap", "pipeline",
                f"seq {seq} committing past the unresolved informing "
                f"trap armed on seq {trap_seq}",
                {"seq": seq, "trap_seq": trap_seq})
        self.checks_passed += 1

    def on_run_end(self, hierarchy) -> None:
        """End of a core run: full sweep plus MSHR drain accounting."""
        self.full_sweeps += 1
        self.check_cache(hierarchy.l1)
        self.check_cache(hierarchy.l2)
        self.check_mshr_file(hierarchy.mshrs)
        pending_ids = {fill[2] for fill in hierarchy._pending}
        for entry in hierarchy.mshrs._entries.values():
            if not entry.filled and entry.mshr_id not in pending_ids:
                self._violate(
                    "mshr.drained", "MSHR",
                    f"entry {entry.mshr_id} (line {entry.line_addr:#x}) "
                    f"survived the run with no fill scheduled",
                    self._mshr_snapshot(entry))
        self.checks_passed += 1
