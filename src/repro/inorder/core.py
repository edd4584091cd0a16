"""Cycle-level in-order 4-wide superscalar timing model (Alpha 21164-like).

The stall model follows the 21164 as Section 3.1 describes: register
dependences are resolved before issue (presence bits), issue is strictly in
program order, and situations that invalidate already-issued younger
instructions are handled with a *replay trap* — flush and re-issue.  The
informing trap reuses exactly that mechanism: a primary-cache miss by an
informing reference flushes the younger pipeline contents, redirects fetch
to the miss handler, and replays the squashed instructions after the
handler's MHRR jump.  The condition-code scheme instead resolves an explicit
BLMISS check, predicted not-taken, so only the miss case pays the redirect.

Memory operations are non-blocking: a load miss does not stall issue until
an instruction needs the data (scoreboard readiness) or, when informing is
active, until the replay trap fires.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Tuple

from repro.branch import TwoBitCounterPredictor
from repro.core.engine import InformingEngine
from repro.core.mechanisms import InformingConfig, Mechanism
from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_ZERO
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import CoreConfig, FUPool, GraduationStats, StreamStack
from repro.pipeline.gradstats import reset_after_warmup

#: Cycles after issue at which a reference's hit/miss outcome is known
#: (the 21164 detects the miss at the tag check, two stages after issue).
TAG_CHECK_DELAY = 2


class _InFlight:
    """One issued-but-not-committed instruction."""

    __slots__ = ("inst", "point", "seq", "complete_cycle", "was_miss",
                 "mshr_id")

    def __init__(self, inst: DynInst, point, seq: int, complete_cycle: int,
                 was_miss: bool = False, mshr_id: Optional[int] = None) -> None:
        self.inst = inst
        self.point = point
        self.seq = seq
        self.complete_cycle = complete_cycle
        self.was_miss = was_miss
        self.mshr_id = mshr_id


class InOrderCore:
    """The in-order machine model of Table 1.

    Args:
        config: pipeline parameters (use ``mem_units=0`` for the 21164-style
            memory-through-integer-pipes arrangement).
        hierarchy: the memory hierarchy (owns all cache state and timing).
        informing: informing-operation configuration; defaults to none.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        informing: Optional[InformingConfig] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.engine = InformingEngine(informing or InformingConfig())
        self.predictor = TwoBitCounterPredictor(config.predictor_entries)
        self.stats = GraduationStats(width=config.issue_width)

    def run(self, stream: Iterable[DynInst],
            max_app_insts: Optional[int] = None,
            warmup_insts: int = 0) -> GraduationStats:
        """Simulate *stream* to completion; return graduation statistics.

        ``max_app_insts`` bounds the number of committed *application*
        instructions (handler bodies and per-reference instrumentation are
        excluded from the count), so informing and baseline runs execute
        identical application work.  ``warmup_insts`` runs that many
        application instructions first and then resets every statistic —
        cache contents stay warm, so the measured region reflects steady
        state rather than cold-start compulsory misses.  ``max_app_insts``
        counts warm-up and measured instructions together.
        """
        config = self.config
        engine = self.engine
        hierarchy = self.hierarchy
        width = config.issue_width
        stack = StreamStack(stream)
        stats = self.stats
        fu = FUPool(config)
        reg_ready = [0] * NUM_REGS
        inflight: Deque[_InFlight] = deque()
        fetch_queue: Deque[Tuple[DynInst, object]] = deque()
        max_fetch_queue = 2 * width
        fetch_blocked_until = 0
        last_fetch_line = -1
        # Armed informing trap:
        # (fire_cycle, squash-point entry, missing ref, mshr id).
        pending_trap: Optional[Tuple[int, _InFlight, DynInst, Optional[int]]] = None
        # Condition-code state: outcome of the most recent memory reference.
        cc_outcome_cycle = 0
        cc_missed_ref: Optional[DynInst] = None
        cc_missed_mshr: Optional[int] = None
        cycle = 0
        seq = 0
        app_committed = 0
        stream_done = False
        is_cc = engine.mechanism is Mechanism.CONDITION_CODE
        is_trap = engine.mechanism is Mechanism.TRAP

        # Hot-loop bindings: this loop turns over once per simulated cycle
        # and several times per instruction, so attribute/global lookups and
        # enum hashing are hoisted out of it.
        op_load = OpClass.LOAD
        op_store = OpClass.STORE
        op_prefetch = OpClass.PREFETCH
        op_branch = OpClass.BRANCH
        op_blmiss = OpClass.BLMISS
        op_mhar_set = OpClass.MHAR_SET
        stack_fetch = stack.fetch
        stack_committed = stack.committed
        # Same-package private access: resetting availability is one slice
        # assignment per cycle, not worth a method call.
        fu_avail = fu._avail
        fu_counts = fu._counts
        fu_take = fu.take_code
        hier_access = hierarchy.access
        hier_ifetch = hierarchy.ifetch
        lat_list = config.latencies.as_list()
        mispredict_penalty = config.mispredict_penalty
        engine_wants = engine.wants
        extended_mshrs = hierarchy.mshrs.extended_lifetime
        # Attached instrument (repro.probe); None in normal runs, so every
        # hook below costs a single identity test.
        probe = hierarchy._probe
        # Graduation slots accumulate in locals and flush in blocks
        # (see GraduationStats.record_cycles).
        acc_cycles = acc_busy = acc_cache = acc_other = 0

        while True:
            # ---- informing replay trap fires ------------------------------
            if pending_trap is not None and cycle >= pending_trap[0]:
                _fire, trap_entry, missed_ref, trap_mshr = pending_trap
                pending_trap = None
                body = engine.on_miss(missed_ref)
                if body is not None:
                    if probe is not None:
                        probe.on_trap(engine, missed_ref.pc, missed_ref.addr,
                                      cycle, len(body))
                    if trap_mshr is not None:
                        hierarchy.mark_informed(trap_mshr)
                    while inflight and inflight[-1].seq > trap_entry.seq:
                        victim = inflight.pop()
                        self._release_mshr(victim, squashed=True)
                    fetch_queue.clear()
                    stack.rewind_after(trap_entry.point)
                    stack.push_handler(body)
                    fetch_blocked_until = max(
                        fetch_blocked_until, cycle + config.mispredict_penalty)
                    stats.informing_mispredicts += 1
                    stats.handler_invocations += 1
                    last_fetch_line = -1
                    cc_missed_ref = None
                    stream_done = False

            # ---- commit ----------------------------------------------------
            committed = 0
            while (inflight and committed < width
                   and inflight[0].complete_cycle <= cycle):
                entry = inflight.popleft()
                if extended_mshrs and entry.mshr_id is not None:
                    hierarchy.release_mshr(entry.mshr_id, False)
                stack_committed(entry.point)
                inst = entry.inst
                op = inst.op
                # Handler code, MHAR sets, BLMISS checks and prefetches
                # are overhead, not application work.
                handler = (inst.handler_code or op is op_mhar_set
                           or op is op_blmiss or op is op_prefetch)
                if probe is not None:
                    probe.on_commit(
                        entry.seq, entry.complete_cycle, cycle, handler,
                        pending_trap[1].seq if pending_trap is not None
                        else None)
                if handler:
                    stats.handler_instructions += 1
                else:
                    stats.app_instructions += 1
                    app_committed += 1
                    if app_committed == warmup_insts:
                        # Pre-warm-up slots die with the old stats object.
                        acc_cycles = acc_busy = acc_cache = acc_other = 0
                        stats = self._reset_stats()
                committed += 1
            acc_cycles += 1
            acc_busy += committed
            lost = width - committed
            if (inflight and inflight[0].was_miss
                    and inflight[0].complete_cycle > cycle):
                acc_cache += lost
                if probe is not None:
                    probe.on_slots(cycle, committed, lost, True)
            else:
                acc_other += lost
                if probe is not None:
                    probe.on_slots(cycle, committed, lost, False)

            if max_app_insts is not None and app_committed >= max_app_insts:
                break
            if (stream_done and not inflight and not fetch_queue
                    and pending_trap is None):
                break

            # ---- fetch ----------------------------------------------------
            if cycle >= fetch_blocked_until:
                while len(fetch_queue) < max_fetch_queue:
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
                            # I-cache miss: replay this fetch when ready.
                            stack.rewind_to(point)
                            fetch_blocked_until = ready
                            last_fetch_line = -1
                            break
                    fetch_queue.append((inst, point))

            # ---- issue (strictly in order, up to width) --------------------
            fu_avail[:] = fu_counts
            issued = 0
            while fetch_queue and issued < width:
                inst, point = fetch_queue[0]
                op = inst.op
                ready = True
                for src in inst.srcs:
                    if src != REG_ZERO and reg_ready[src] > cycle:
                        ready = False
                        break
                if not ready:
                    break
                if not fu_take(op.fu_code):
                    break
                fetch_queue.popleft()
                issued += 1
                seq += 1

                if op is op_load or op is op_store or op is op_prefetch:
                    is_prefetch = op is op_prefetch
                    result = hier_access(inst.addr, op is op_store, cycle,
                                         prefetch=is_prefetch)
                    if result is None:
                        if is_prefetch:
                            inflight.append(
                                _InFlight(inst, point, seq, cycle + 1))
                            continue
                        # MSHR full: structural stall; retry next cycle.
                        fetch_queue.appendleft((inst, point))
                        issued -= 1
                        seq -= 1
                        break
                    if op is op_load:
                        complete = result.ready_cycle
                        dest = inst.dest
                        if dest is not None and dest != REG_ZERO:
                            reg_ready[dest] = complete
                    else:
                        # Stores retire into the write buffer; a
                        # write-allocate miss fetch proceeds in background.
                        complete = cycle + 1
                    entry = _InFlight(inst, point, seq, complete,
                                      was_miss=result.l1_miss,
                                      mshr_id=result.mshr_id)
                    inflight.append(entry)
                    # Informing fires once per line fetch: a primary miss
                    # arms the trap, and a merged reference re-arms only if
                    # the fetch it joined was never informed (its trigger
                    # was squashed first).  See AccessResult.needs_inform.
                    if not is_prefetch and not inst.handler_code:
                        cc_outcome_cycle = cycle + TAG_CHECK_DELAY
                        if result.needs_inform:
                            if probe is not None:
                                probe.on_inform_signal(result)
                            cc_missed_ref = inst
                            cc_missed_mshr = result.mshr_id
                        else:
                            cc_missed_ref = None
                        if (is_trap and result.needs_inform
                                and pending_trap is None
                                and engine_wants(inst)):
                            pending_trap = (cycle + TAG_CHECK_DELAY, entry,
                                            inst, result.mshr_id)
                            # The op may not commit before its replay trap
                            # fires, or the squash point would be stale.
                            entry.complete_cycle = max(
                                entry.complete_cycle,
                                cycle + TAG_CHECK_DELAY)
                    continue

                complete = cycle + lat_list[op.op_code]
                entry = _InFlight(inst, point, seq, complete)
                inflight.append(entry)
                dest = inst.dest
                if dest is not None and dest != REG_ZERO:
                    reg_ready[dest] = complete

                if op is op_branch:
                    predicted = self.predictor.predict(inst.pc)
                    self.predictor.update(inst.pc, inst.taken)
                    if predicted != inst.taken:
                        self.predictor.record_mispredict()
                        stats.branch_mispredicts += 1
                        fetch_blocked_until = max(
                            fetch_blocked_until,
                            complete + mispredict_penalty)
                    elif inst.taken:
                        # Correctly-predicted taken branch: one fetch bubble.
                        fetch_blocked_until = max(fetch_blocked_until,
                                                  cycle + 1)
                elif op is op_blmiss:
                    # Explicit check, predicted not-taken, so it issues
                    # without waiting for the condition code: free on a
                    # hit; a miss resolves like a mispredicted branch once
                    # the tag check completes.
                    if (is_cc and cc_missed_ref is not None
                            and pending_trap is None
                            and engine_wants(cc_missed_ref)):
                        fire = max(cycle + 1, cc_outcome_cycle)
                        pending_trap = (fire, entry, cc_missed_ref,
                                        cc_missed_mshr)
                        # The check may not commit before it resolves, or
                        # the squash point would go stale.
                        entry.complete_cycle = max(entry.complete_cycle, fire)
                    cc_missed_ref = None

            cycle += 1

        stats.record_cycles(acc_cycles, acc_busy, acc_cache, acc_other)
        if probe is not None:
            probe.on_run_end(hierarchy)
        return stats

    _reset_stats = reset_after_warmup

    def _release_mshr(self, entry: _InFlight, squashed: bool) -> None:
        if entry.mshr_id is not None and self.hierarchy.mshrs.extended_lifetime:
            self.hierarchy.release_mshr(entry.mshr_id, squashed)
