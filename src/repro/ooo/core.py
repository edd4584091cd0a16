"""Cycle-level out-of-order 4-wide superscalar timing model (R10000-like).

The model tracks the two dependence kinds Section 3.2 identifies: program
order in a 32-entry reorder buffer (graduation in order, 4 wide), and true
data dependences through register renaming (producer links captured at
dispatch; write-after-write and write-after-read hazards do not exist).
Unresolved predicted branches consume *shadow state*; fetch stalls when all
shadow slots are in use.  When informing traps are handled branch-style,
in-flight informing memory operations consume the same resource — the
hardware cost the paper calls out.

Informing trap handling (Section 3.2):

* **branch-like** — the implicit branch-and-link resolves when the hit/miss
  outcome is known (two cycles after the reference issues).  A miss squashes
  younger instructions, redirects fetch to the handler, and pays the
  mispredict penalty; handler execution overlaps the outstanding miss.
* **exception-like** — the trap waits until the reference reaches the head
  of the reorder buffer and graduates; the machine is then flushed as if
  the next instruction excepted.  Cheaper hardware, slower invocation (the
  paper measured 7-9% on compress).

With ``wrong_path_factory`` set, a mispredicted branch keeps fetching down
the wrong path (synthetic instructions from the factory) until it resolves;
wrong-path loads access the cache speculatively and are squashed at resolve,
exercising the Section 3.3 MSHR-lifetime/invalidate mechanism.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.branch import TwoBitCounterPredictor
from repro.core.engine import InformingEngine
from repro.core.mechanisms import InformingConfig, Mechanism, TrapStyle
from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass
from repro.isa.registers import REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import CoreConfig, FUPool, GraduationStats, StreamStack
from repro.pipeline.gradstats import reset_after_warmup

#: Cycles after issue at which a reference's hit/miss outcome is known.
TAG_CHECK_DELAY = 2

_WAITING = 0
_ISSUED = 1


class _Entry:
    """One reorder-buffer entry."""

    __slots__ = ("inst", "point", "seq", "state", "deps", "complete_cycle",
                 "was_miss", "needs_inform", "mshr_id", "holds_shadow",
                 "trap_pending", "cc_ref", "wrong_path", "squashed",
                 "outcome_cycle")

    def __init__(self, inst: DynInst, point, seq: int) -> None:
        self.inst = inst
        self.point = point
        self.seq = seq
        self.state = _WAITING
        self.deps: Tuple["_Entry", ...] = ()
        self.complete_cycle: Optional[int] = None
        self.was_miss = False
        self.needs_inform = False
        self.mshr_id: Optional[int] = None
        self.holds_shadow = False
        self.trap_pending = False
        self.cc_ref: Optional["_Entry"] = None
        self.wrong_path = False
        self.squashed = False
        self.outcome_cycle: Optional[int] = None


class OutOfOrderCore:
    """The out-of-order machine model of Table 1.

    Args:
        config: pipeline parameters (ROB size, shadow slots, FU mix...).
        hierarchy: the memory hierarchy.  Pass one built with
            ``extended_mshr_lifetime=True`` to enable the Section 3.3
            speculative-update guarantee.
        informing: informing-operation configuration.
        wrong_path_factory: optional ``f(branch_inst) -> iterator of
            DynInst`` producing synthetic wrong-path instructions fetched
            after a mispredicted branch until it resolves.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        informing: Optional[InformingConfig] = None,
        wrong_path_factory: Optional[
            Callable[[DynInst], Iterator[DynInst]]] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.engine = InformingEngine(informing or InformingConfig())
        self.predictor = TwoBitCounterPredictor(config.predictor_entries)
        self.stats = GraduationStats(width=config.issue_width)
        self.wrong_path_factory = wrong_path_factory
        self.wrong_path_squashed = 0

    # -- main loop ------------------------------------------------------------
    def run(self, stream: Iterable[DynInst],
            max_app_insts: Optional[int] = None,
            warmup_insts: int = 0) -> GraduationStats:
        """Simulate *stream* to completion; return graduation statistics.

        ``warmup_insts`` application instructions run first, after which all
        statistics reset (caches stay warm); ``max_app_insts`` counts
        warm-up plus measured instructions.
        """
        config = self.config
        engine = self.engine
        hierarchy = self.hierarchy
        predictor = self.predictor
        stats = self.stats
        width = config.issue_width
        rob_size = config.rob_size
        stack = StreamStack(stream)
        fu = FUPool(config)
        rob: List[_Entry] = []
        # Unissued rob entries in program order.  The issue scan walks this
        # instead of the whole rob (most entries are already issued);
        # entries that issue, squash, or leave the rob are compacted away
        # lazily during the scan.
        waiting: List[_Entry] = []
        rename: dict = {}
        shadow_in_use = 0
        fetch_blocked_until = 0
        halted_on_branch: Optional[_Entry] = None  # mispredict, no wrong path
        wrong_path_branch: Optional[_Entry] = None  # mispredict, wrong path on
        last_fetch_line = -1
        last_mem_entry: Optional[_Entry] = None  # for BLMISS binding
        armed_traps: List[Tuple[int, _Entry]] = []
        cycle = 0
        seq = 0
        app_committed = 0
        stream_done = False
        branch_like = (engine.config.trap_style is TrapStyle.BRANCH_LIKE)
        is_trap = engine.mechanism is Mechanism.TRAP
        is_cc = engine.mechanism is Mechanism.CONDITION_CODE
        informing_needs_shadow = (is_trap and branch_like and
                                  engine.config.active)

        # Hot-loop bindings: the issue scan walks the reorder buffer every
        # cycle, so attribute lookups and enum hashing are hoisted out.
        op_load = OpClass.LOAD
        op_store = OpClass.STORE
        op_prefetch = OpClass.PREFETCH
        op_branch = OpClass.BRANCH
        op_blmiss = OpClass.BLMISS
        op_mhar_set = OpClass.MHAR_SET
        entry_cls = _Entry
        stack_fetch = stack.fetch
        stack_committed = stack.committed
        # Same-package private access: resetting availability is one slice
        # assignment per cycle, not worth a method call.
        fu_avail = fu._avail
        fu_counts = fu._counts
        fu_take = fu.take_code
        hier_ifetch = hierarchy.ifetch
        rename_get = rename.get
        lat_list = config.latencies.as_list()
        mispredict_penalty = config.mispredict_penalty
        engine_wants = engine.wants
        extended_mshrs = hierarchy.mshrs.extended_lifetime
        issue_memory = self._issue_memory
        # Attached instrument (repro.probe); None in normal runs, so every
        # hook below costs a single identity test.
        probe = hierarchy._probe
        shadow_branches = config.shadow_branches
        # Graduation slots accumulate in locals and flush in blocks
        # (see GraduationStats.record_cycles).
        acc_cycles = acc_busy = acc_cache = acc_other = 0

        def squash_after(boundary: _Entry) -> None:
            """Remove everything younger than *boundary* from the machine."""
            nonlocal shadow_in_use, last_mem_entry, last_fetch_line
            nonlocal halted_on_branch, wrong_path_branch, stream_done
            while rob and rob[-1].seq > boundary.seq:
                victim = rob.pop()
                victim.squashed = True
                if victim.wrong_path:
                    self.wrong_path_squashed += 1
                if victim.holds_shadow:
                    shadow_in_use -= 1
                if victim.mshr_id is not None and hierarchy.mshrs.extended_lifetime:
                    hierarchy.release_mshr(victim.mshr_id, squashed=True)
            rename.clear()
            for entry in rob:
                dest = entry.inst.dest
                if dest is not None and dest != REG_ZERO:
                    rename[dest] = entry
            armed_traps[:] = [
                (fire, e) for fire, e in armed_traps if not e.squashed]
            if last_mem_entry is not None and last_mem_entry.squashed:
                last_mem_entry = None
            if halted_on_branch is not None and halted_on_branch.squashed:
                halted_on_branch = None
            if wrong_path_branch is not None and wrong_path_branch.squashed:
                wrong_path_branch = None
            last_fetch_line = -1
            stream_done = False

        def take_trap(boundary: _Entry, missed_ref: DynInst,
                      fire_cycle: int, mshr_id: Optional[int]) -> None:
            nonlocal fetch_blocked_until
            # Fire once per line fetch: skip if another trap for the same
            # fetch already ran.
            if mshr_id is not None and hierarchy.mshrs.is_informed(mshr_id):
                return
            body = engine.on_miss(missed_ref)
            if body is None:
                return
            if probe is not None:
                probe.on_trap(engine, missed_ref.pc, missed_ref.addr,
                              fire_cycle, len(body))
            if mshr_id is not None:
                hierarchy.mark_informed(mshr_id)
            squash_after(boundary)
            stack.rewind_after(boundary.point)
            stack.push_handler(body)
            fetch_blocked_until = max(fetch_blocked_until,
                                      fire_cycle + config.mispredict_penalty)
            stats.informing_mispredicts += 1
            stats.handler_invocations += 1

        while True:
            # ---- branch-like informing traps fire --------------------------
            if armed_traps:
                due = [(f, e) for f, e in armed_traps
                       if f <= cycle and not e.squashed]
                if due:
                    due.sort(key=lambda pair: pair[1].seq)
                    fire, entry = due[0]
                    armed_traps.remove((fire, entry))
                    take_trap(entry, entry.inst, cycle, entry.mshr_id)
                armed_traps[:] = [
                    (f, e) for f, e in armed_traps if not e.squashed]

            # ---- graduation -------------------------------------------------
            graduated = 0
            trap_fired_at_head = False
            if probe is not None:
                # The oldest trap still due (they fire one per cycle).
                due_seq = min((e.seq for f, e in armed_traps
                               if f <= cycle and not e.squashed),
                              default=None)
            while (rob and graduated < width
                   and rob[0].state == _ISSUED
                   and rob[0].complete_cycle <= cycle):
                entry = rob.pop(0)
                if extended_mshrs and entry.mshr_id is not None:
                    hierarchy.release_mshr(entry.mshr_id, squashed=False)
                inst = entry.inst
                if rename_get(inst.dest) is entry:
                    del rename[inst.dest]
                stack_committed(entry.point)
                op = inst.op
                # Handler code, MHAR sets, BLMISS checks and prefetches
                # are overhead, not application work.
                handler = (inst.handler_code or op is op_mhar_set
                           or op is op_blmiss or op is op_prefetch)
                if probe is not None:
                    probe.on_commit(entry.seq, entry.complete_cycle, cycle,
                                    handler, due_seq)
                if handler:
                    stats.handler_instructions += 1
                else:
                    stats.app_instructions += 1
                    app_committed += 1
                    if app_committed == warmup_insts:
                        # Pre-warm-up slots die with the old stats object.
                        acc_cycles = acc_busy = acc_cache = acc_other = 0
                        stats = self._reset_stats()
                graduated += 1
                if entry.trap_pending:
                    # Exception-style informing trap: flush as though the
                    # next instruction excepted.
                    if rob:
                        take_trap(entry, inst, cycle, entry.mshr_id)
                    else:
                        # Nothing younger to squash; still invoke handler.
                        body = engine.on_miss(inst)
                        if body is not None:
                            if probe is not None:
                                probe.on_trap(engine, inst.pc, inst.addr,
                                              cycle, len(body))
                            if entry.mshr_id is not None:
                                hierarchy.mark_informed(entry.mshr_id)
                            stack.rewind_after(entry.point)
                            stack.push_handler(body)
                            fetch_blocked_until = max(
                                fetch_blocked_until,
                                cycle + config.mispredict_penalty)
                            stats.informing_mispredicts += 1
                            stats.handler_invocations += 1
                    trap_fired_at_head = True
                    break
            head = rob[0] if rob else None
            acc_cycles += 1
            acc_busy += graduated
            lost = width - graduated
            if (head is not None and head.was_miss
                    and head.state == _ISSUED and head.complete_cycle > cycle):
                acc_cache += lost
                if probe is not None:
                    probe.on_slots(cycle, graduated, lost, True)
            else:
                acc_other += lost
                if probe is not None:
                    probe.on_slots(cycle, graduated, lost, False)

            if max_app_insts is not None and app_committed >= max_app_insts:
                break
            if stream_done and not rob:
                break

            # ---- fetch / dispatch ------------------------------------------
            if (cycle >= fetch_blocked_until and halted_on_branch is None
                    and not trap_fired_at_head):
                fetched = 0
                while fetched < width and len(rob) < rob_size:
                    if (shadow_in_use >= shadow_branches):
                        break  # out of shadow state: front end stalls
                    item = stack_fetch()
                    if item is None:
                        stream_done = True
                        break
                    inst, point = item
                    line = inst.pc >> 5
                    if line != last_fetch_line:
                        ready = hier_ifetch(inst.pc, cycle)
                        last_fetch_line = line
                        if ready > cycle:
                            stack.rewind_to(point)
                            fetch_blocked_until = ready
                            last_fetch_line = -1
                            break
                    seq += 1
                    entry = entry_cls(inst, point, seq)
                    entry.wrong_path = wrong_path_branch is not None
                    deps = []
                    for src in inst.srcs:
                        if src != REG_ZERO:
                            producer = rename_get(src)
                            if producer is not None:
                                deps.append(producer)
                    entry.deps = tuple(deps)
                    dest = inst.dest
                    if dest is not None and dest != REG_ZERO:
                        rename[dest] = entry
                    op = inst.op
                    if op is op_branch and entry.wrong_path:
                        # Wrong-path branches consume shadow state but take
                        # no control action — the machine is already off in
                        # the weeds until the real branch resolves.
                        entry.holds_shadow = True
                        shadow_in_use += 1
                    elif op is op_branch:
                        entry.holds_shadow = True
                        shadow_in_use += 1
                        predicted = predictor.predict(inst.pc)
                        predictor.update(inst.pc, inst.taken)
                        if predicted != inst.taken:
                            predictor.record_mispredict()
                            stats.branch_mispredicts += 1
                            rob.append(entry)
                            waiting.append(entry)
                            fetched += 1
                            if (self.wrong_path_factory is not None
                                    and not entry.wrong_path):
                                wrong_path_branch = entry
                                stack.push_handler(
                                    self.wrong_path_factory(inst))
                                continue
                            halted_on_branch = entry
                            break
                        if inst.taken:
                            # Correct taken prediction: one fetch bubble.
                            rob.append(entry)
                            waiting.append(entry)
                            fetched += 1
                            fetch_blocked_until = max(fetch_blocked_until,
                                                      cycle + 1)
                            break
                    elif op is op_blmiss:
                        entry.holds_shadow = True
                        shadow_in_use += 1
                        entry.cc_ref = last_mem_entry
                    elif (informing_needs_shadow
                          and (op is op_load or op is op_store)
                          and engine_wants(inst)):
                        entry.holds_shadow = True
                        shadow_in_use += 1
                    if ((op is op_load or op is op_store)
                            and not inst.handler_code):
                        last_mem_entry = entry
                    rob.append(entry)
                    waiting.append(entry)
                    fetched += 1

            # ---- issue -------------------------------------------------------
            fu_avail[:] = fu_counts
            issued = 0
            # Scan only the unissued entries, in program order, compacting
            # the list in place as entries issue (or turn out squashed /
            # graduated).  The rob itself is mostly issued entries, so this
            # is much shorter than a full rob walk.  Paths that mutate the
            # machine wholesale (squash_after / take_trap) break out; the
            # unscanned tail is spliced back and squashed stragglers are
            # dropped lazily on the next scan.
            read = 0
            write = 0
            waiting_len = len(waiting)
            while read < waiting_len:
                entry = waiting[read]
                read += 1
                if entry.state != _WAITING or entry.squashed:
                    continue  # compact away
                ready = True
                for dep in entry.deps:
                    if dep.complete_cycle is None or dep.complete_cycle > cycle:
                        ready = False
                        break
                if not ready:
                    waiting[write] = entry
                    write += 1
                    continue
                inst = entry.inst
                op = inst.op
                ref = entry.cc_ref
                if ref is not None:
                    if ref.outcome_cycle is None or ref.outcome_cycle > cycle:
                        # hit/miss condition code not yet written
                        waiting[write] = entry
                        write += 1
                        continue
                if not fu_take(op.fu_code):
                    waiting[write] = entry
                    write += 1
                    continue

                if op is op_load or op is op_store or op is op_prefetch:
                    if not issue_memory(entry, cycle):
                        # MSHR full: retry next cycle
                        waiting[write] = entry
                        write += 1
                        continue
                    issued += 1
                    if (entry.needs_inform and op is not op_prefetch
                            and not entry.wrong_path
                            and is_trap and engine_wants(inst)):
                        if branch_like:
                            armed_traps.append(
                                (entry.outcome_cycle, entry))
                            # The implicit branch resolves at the tag check;
                            # the op cannot graduate before its trap fires
                            # (otherwise the squash point would be stale).
                            entry.complete_cycle = max(entry.complete_cycle,
                                                       entry.outcome_cycle)
                        else:
                            entry.trap_pending = True
                    if entry.holds_shadow and branch_like:
                        # Shadow state frees once the outcome is known; we
                        # approximate release at issue+tag-check by simply
                        # releasing here (the two-cycle window is small).
                        entry.holds_shadow = False
                        shadow_in_use -= 1
                    if issued >= width:
                        break
                    continue

                entry.state = _ISSUED
                entry.complete_cycle = cycle + lat_list[op.op_code]
                issued += 1
                if op is op_branch:
                    if entry.holds_shadow:
                        entry.holds_shadow = False
                        shadow_in_use -= 1
                    if halted_on_branch is entry:
                        halted_on_branch = None
                        squash_after(entry)  # nothing younger in this mode
                        fetch_blocked_until = max(
                            fetch_blocked_until,
                            entry.complete_cycle + mispredict_penalty)
                        break  # the machine just flushed; stop issuing
                    if wrong_path_branch is entry:
                        wrong_path_branch = None
                        squash_after(entry)
                        stack.rewind_after(entry.point)
                        fetch_blocked_until = max(
                            fetch_blocked_until,
                            entry.complete_cycle + mispredict_penalty)
                        break  # younger (wrong-path) work was squashed
                elif op is op_blmiss:
                    if entry.holds_shadow:
                        entry.holds_shadow = False
                        shadow_in_use -= 1
                    ref = entry.cc_ref
                    if (is_cc and ref is not None and ref.needs_inform
                            and not entry.wrong_path
                            and engine_wants(ref.inst)):
                        take_trap(entry, ref.inst, cycle, ref.mshr_id)
                        break  # the machine state just changed wholesale
                if issued >= width:
                    break
            # Splice the unscanned tail (empty when the scan ran to the end)
            # over the compacted-away prefix.
            waiting[write:] = waiting[read:]

            cycle += 1

        stats.record_cycles(acc_cycles, acc_busy, acc_cache, acc_other)
        if probe is not None:
            probe.on_run_end(hierarchy)
        return stats

    _reset_stats = reset_after_warmup

    # -- memory issue --------------------------------------------------------
    def _issue_memory(self, entry: _Entry, cycle: int) -> bool:
        inst = entry.inst
        op = inst.op
        is_prefetch = op is OpClass.PREFETCH
        is_store = op is OpClass.STORE
        # Wrong-path stores must not probe the cache (Section 3.3: store
        # probes are not speculative); complete them as nops.
        if is_store and entry.wrong_path:
            entry.state = _ISSUED
            entry.complete_cycle = cycle + 1
            return True
        result = self.hierarchy.access(inst.addr, is_store, cycle,
                                       prefetch=is_prefetch)
        if result is None:
            if is_prefetch:
                entry.state = _ISSUED
                entry.complete_cycle = cycle + 1
                return True
            return False
        entry.state = _ISSUED
        entry.was_miss = result.l1_miss and not is_prefetch
        entry.needs_inform = result.needs_inform and not is_prefetch
        if entry.needs_inform and not inst.handler_code:
            probe = self.hierarchy._probe
            if probe is not None:
                probe.on_inform_signal(result)
        entry.mshr_id = result.mshr_id
        entry.outcome_cycle = cycle + TAG_CHECK_DELAY
        if op is OpClass.LOAD:
            entry.complete_cycle = result.ready_cycle
        else:
            entry.complete_cycle = cycle + 1
        return True
