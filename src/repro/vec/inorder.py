"""Flat event-driven replay of the in-order core (digit-exact).

This kernel advances the same machine state as
:class:`repro.inorder.InOrderCore.run` — it drives the *identical*
``MemoryHierarchy``/``MSHRFile`` objects, the same predictor table, and
the same ``GraduationStats``/``MemStats`` accounting — but replaces the
object-per-instruction stream side with
row tuples in the :mod:`repro.isa.rows` layout:

* instructions are 13-tuples of plain ints read out of a shared row
  list; no ``DynInst``, ``FetchPoint`` or ``StreamStack`` objects
  exist, and issue dispatch switches on the precomputed ``cls`` slot;
* handler injection replays immutable flat frames from
  :class:`repro.vec.decode.FlatHandlers`;
* the L1-hit path of :meth:`MemoryHierarchy.access` and the
  icache-hit path of :meth:`MemoryHierarchy.ifetch` are inlined;
* cycles in which provably nothing can happen are skipped in bulk:
  at the end of a no-op iteration the kernel computes the earliest
  cycle at which *any* event is possible (trap fire, oldest-entry
  commit, issue-head operands ready, fetch unblock) and jumps there,
  bulk-charging the skipped graduation slots to the same stall bucket
  every skipped cycle would have charged.

With a probe attached (:mod:`repro.probe`) the kernel sends every data
reference through :meth:`MemoryHierarchy.access`, steps one cycle at a
time, and calls the trap, inform, commit, slot and run-end hooks where
the interp core calls them.  Stream buffers stay interp-only.

Every statistic any bar reports is bit-identical with the interp core;
``tests/test_vec_parity.py`` and the golden-parity suite enforce it.
"""

from __future__ import annotations

from collections import deque

from repro.core.mechanisms import Mechanism, return_pc
from repro.isa.registers import NUM_REGS
from repro.isa.rows import (
    CLS_BLMISS,
    CLS_BRANCH,
    CLS_MEM,
    CLS_PLAIN,
    OP_LOAD,
    OP_PREFETCH,
    OP_STORE,
)
from repro.pipeline.stream import SharedStream
from repro.vec.decode import FlatHandlers


def run_inorder_vec(core, stream: SharedStream, max_app_insts: int,
                    warmup_insts: int):
    """Replay *stream*'s rows through *core* (an InOrderCore); return its
    stats.

    Preconditions (the dispatcher guarantees them): no stream buffers,
    and the informing handler — if any — is a GenericHandler.
    """
    config = core.config
    engine = core.engine
    hierarchy = core.hierarchy
    predictor = core.predictor
    if hierarchy._stream_buffers:
        raise ValueError("vec kernel cannot replay stream buffers; "
                         "use the interp backend")
    probe = hierarchy._probe

    width = config.issue_width
    stats = core.stats
    mstats = hierarchy.stats

    engine_active = engine.enabled and engine.config.active
    is_cc = engine.config.mechanism is Mechanism.CONDITION_CODE
    is_trap = engine.config.mechanism is Mechanism.TRAP
    handlers = FlatHandlers(engine.config.handler) if engine_active else None
    handler_len = handlers.body_length if handlers is not None else 0

    # FU pool inlined (FUPool semantics: per-cycle counters by dense code,
    # MEMORY remapped onto the integer pipes when mem_units == 0).
    fu_counts = [config.int_units, config.fp_units, config.branch_units,
                 config.mem_units, 1 << 30]
    mem_on_int = config.mem_units == 0
    fmap = [0, 1, 2, 0 if mem_on_int else 3, 4]
    fu_avail = list(fu_counts)

    # Predictor inlined; counters flushed back at the end of the run.
    ptable = predictor._table
    pmask = predictor.entries - 1
    plookups = 0
    pmisses = 0

    # Memory-hierarchy bindings for the inlined L1-hit fast path.  The
    # bound containers are mutated in place, never rebound.
    hier_access = hierarchy.access
    hier_ifetch = hierarchy.ifetch
    apply_fills = hierarchy._apply_fills
    pending = hierarchy._pending
    bank_free = hierarchy._bank_free
    num_banks = hierarchy._num_banks
    l1_hit_latency = hierarchy._l1_hit_latency
    line_shift = hierarchy._line_shift
    l1 = hierarchy.l1
    l1_sets = l1._sets
    set_mask = l1._set_mask
    l1_is_lru = l1._is_lru
    l1_stateful = l1._stateful
    extended_mshrs = hierarchy.mshrs.extended_lifetime
    release_mshr = hierarchy.release_mshr
    # Inlined icache-hit path (ifetch counts accesses, then probes with
    # an LRU refresh; misses fall back to the full method, which
    # re-probes without side effects).
    icache = hierarchy.icache
    inline_icache = icache is not None and icache._is_lru
    if inline_icache:
        i_sets = icache._sets
        i_set_mask = icache._set_mask
        i_line_shift = icache._line_shift
    else:
        i_sets = i_set_mask = i_line_shift = None

    lat_list = config.latencies.as_list()
    mispredict_penalty = config.mispredict_penalty

    # Stream state: the app frame is (stream rows, app_pos); handler
    # frames are [serial, pos, rows, length] replayed from FlatHandlers.
    app_rows = stream.insts
    stream_grow = stream.grow
    app_pos = 0
    app_avail = len(app_rows)
    frames = []
    next_serial = 1

    reg_ready = [0] * NUM_REGS
    # In-flight entries: [complete, seq, was_miss, mshr_id, ovh, serial, idx]
    inflight = deque()
    inflight_append = inflight.append
    # Fetch-queue entries: (row, serial, idx).
    fetch_queue = deque()
    max_fetch_queue = 2 * width
    fetch_blocked_until = 0
    last_fetch_line = -1
    # Armed trap: (fire, entry, ref_row, mshr_id).
    pending_trap = None
    cc_outcome_cycle = 0
    cc_row = None         # missing ref of the condition-code scheme
    cc_mshr = None
    cycle = 0
    seq = 0
    app_committed = 0
    stream_done = False
    acc_cycles = acc_busy = acc_cache = acc_other = 0
    # Commit tallies in locals, flushed once at the end; zeroed at the
    # warmup reset just as the reset discards the interp counters.
    st_app = 0
    st_hand = 0

    while True:
        # ---- informing replay trap fires ------------------------------
        trap_fired = False
        if pending_trap is not None and cycle >= pending_trap[0]:
            trap_fired = True
            _fire, trap_entry, ref_row, trap_mshr = pending_trap
            pending_trap = None
            # engine.on_miss, flat: wants() held when the trap armed and
            # is constant over a vec run, so the body is always injected.
            engine.invocations += 1
            engine.mhrr = return_pc(ref_row[7])
            body = handlers.body(ref_row[7])
            engine.injected_instructions += handler_len
            if probe is not None:
                probe.on_trap(engine, ref_row[7], ref_row[5], cycle,
                              handler_len)
            if trap_mshr is not None:
                hierarchy.mark_informed(trap_mshr)
            tseq = trap_entry[1]
            while inflight and inflight[-1][1] > tseq:
                victim = inflight.pop()
                if extended_mshrs and victim[3] is not None:
                    release_mshr(victim[3], True)
            fetch_queue.clear()
            # stack.rewind_after(trap_entry.point)
            tser = trap_entry[5]
            tidx = trap_entry[6]
            if tser == 0:
                if frames:
                    del frames[:]
                app_pos = tidx + 1
            else:
                while frames[-1][0] != tser:
                    frames.pop()
                frames[-1][1] = tidx + 1
            frames.append([next_serial, 0, body, len(body)])
            next_serial += 1
            fb = cycle + mispredict_penalty
            if fb > fetch_blocked_until:
                fetch_blocked_until = fb
            stats.informing_mispredicts += 1
            stats.handler_invocations += 1
            last_fetch_line = -1
            cc_row = None
            stream_done = False

        # ---- commit ----------------------------------------------------
        committed = 0
        while (inflight and committed < width
               and inflight[0][0] <= cycle):
            entry = inflight.popleft()
            if extended_mshrs and entry[3] is not None:
                release_mshr(entry[3], False)
            if probe is not None:
                probe.on_commit(entry[1], entry[0], cycle, entry[4],
                                pending_trap[1][1] if pending_trap is not None
                                else None)
            if entry[4]:
                st_hand += 1
            else:
                st_app += 1
                app_committed += 1
                if app_committed == warmup_insts:
                    acc_cycles = acc_busy = acc_cache = acc_other = 0
                    st_app = st_hand = 0
                    stats = core._reset_stats()
                    mstats = hierarchy.stats
            committed += 1
        acc_cycles += 1
        acc_busy += committed
        lost = width - committed
        if (inflight and inflight[0][2] and inflight[0][0] > cycle):
            acc_cache += lost
            if probe is not None:
                probe.on_slots(cycle, committed, lost, True)
        else:
            acc_other += lost
            if probe is not None:
                probe.on_slots(cycle, committed, lost, False)

        if app_committed >= max_app_insts:
            break
        if (stream_done and not inflight and not fetch_queue
                and pending_trap is None):
            break

        # ---- fetch ----------------------------------------------------
        fetched = 0
        if cycle >= fetch_blocked_until:
            room = max_fetch_queue - len(fetch_queue)
            while room > 0:
                if frames:
                    fr = frames[-1]
                    idx = fr[1]
                    if idx >= fr[3]:
                        frames.pop()
                        continue
                    row = fr[2][idx]
                    serial = fr[0]
                    fr[1] = idx + 1
                else:
                    idx = app_pos
                    if idx >= app_avail:
                        if not stream_grow(idx):
                            stream_done = True
                            break
                        app_avail = len(app_rows)
                    row = app_rows[idx]
                    serial = 0
                    app_pos = idx + 1
                line = row[8]
                if line != last_fetch_line:
                    pc = row[7]
                    if inline_icache:
                        iline = pc >> i_line_shift
                        iset = i_sets[iline & i_set_mask]
                        idirty = iset.get(iline)
                        if idirty is not None:
                            hierarchy.i_accesses += 1
                            del iset[iline]
                            iset[iline] = idirty
                            ready = cycle
                        else:
                            ready = hier_ifetch(pc, cycle)
                    else:
                        ready = hier_ifetch(pc, cycle)
                    last_fetch_line = line
                    if ready > cycle:
                        # I-cache miss: replay this fetch when ready.
                        if serial:
                            fr[1] = idx
                        else:
                            app_pos = idx
                        fetch_blocked_until = ready
                        last_fetch_line = -1
                        break
                fetch_queue.append((row, serial, idx))
                room -= 1
                fetched += 1

        # ---- issue (strictly in order, up to width) --------------------
        fu_avail[:] = fu_counts
        issued = 0
        while fetch_queue and issued < width:
            tq = fetch_queue[0]
            row = tq[0]
            s1 = row[3]
            if s1 > 0 and reg_ready[s1] > cycle:
                break
            s2 = row[4]
            if s2 > 0 and reg_ready[s2] > cycle:
                break
            code = fmap[row[1]]
            avail = fu_avail[code]
            if avail <= 0:
                break
            fu_avail[code] = avail - 1
            fetch_queue.popleft()
            issued += 1
            seq += 1
            cls = row[12]

            if cls == CLS_PLAIN:
                complete = cycle + lat_list[row[0]]
                inflight_append(
                    [complete, seq, False, None, row[11], tq[1], tq[2]])
                dest = row[2]
                if dest > 0:
                    reg_ready[dest] = complete
                continue

            if cls == CLS_MEM:
                op = row[0]
                addr = row[5]
                if op == OP_PREFETCH:
                    result = hier_access(addr, False, cycle, prefetch=True)
                    if result is None:
                        inflight_append(
                            [cycle + 1, seq, False, None,
                             row[11], tq[1], tq[2]])
                    else:
                        inflight_append(
                            [cycle + 1, seq, result.l1_miss, result.mshr_id,
                             row[11], tq[1], tq[2]])
                    continue
                is_store = op == OP_STORE
                # Inlined L1-hit fast path of MemoryHierarchy.access —
                # identical statements, no call frame.  Falls back to the
                # full method on anything but a clean hit, and on every
                # reference while a probe watches.
                hierarchy._last_cycle = cycle
                if pending and pending[0][0] <= cycle:
                    apply_fills(cycle)
                line_addr = addr >> line_shift
                cache_set = l1_sets[line_addr & set_mask]
                dirty = cache_set.get(line_addr)
                if dirty is not None and probe is None:
                    mstats.l1_accesses += 1
                    if l1_is_lru:
                        del cache_set[line_addr]
                        cache_set[line_addr] = dirty or is_store
                    else:
                        if is_store:
                            cache_set[line_addr] = True
                        if l1_stateful is not None:
                            l1_stateful.on_hit(line_addr & set_mask,
                                               line_addr)
                    mstats.l1_hits += 1
                    bank = line_addr % num_banks
                    start = bank_free[bank]
                    if start > cycle:
                        mstats.bank_conflict_cycles += start - cycle
                    else:
                        start = cycle
                    bank_free[bank] = start + 1
                    if op == OP_LOAD:
                        complete = start + l1_hit_latency
                        dest = row[2]
                        if dest > 0:
                            reg_ready[dest] = complete
                    else:
                        complete = cycle + 1
                    inflight_append(
                        [complete, seq, False, None, row[11], tq[1], tq[2]])
                    if is_cc and not row[10]:
                        cc_outcome_cycle = cycle + 2
                        cc_row = None
                    continue
                result = hier_access(addr, is_store, cycle, prefetch=False)
                if result is None:
                    # MSHR full: structural stall; retry next cycle.
                    fetch_queue.appendleft(tq)
                    issued -= 1
                    seq -= 1
                    break
                if op == OP_LOAD:
                    complete = result.ready_cycle
                    dest = row[2]
                    if dest > 0:
                        reg_ready[dest] = complete
                else:
                    complete = cycle + 1
                entry = [complete, seq, result.l1_miss, result.mshr_id,
                         row[11], tq[1], tq[2]]
                inflight_append(entry)
                if not row[10]:
                    if probe is not None and result.needs_inform:
                        probe.on_inform_signal(result)
                    if is_cc:
                        cc_outcome_cycle = cycle + 2
                        if result.needs_inform:
                            cc_row = row
                            cc_mshr = result.mshr_id
                        else:
                            cc_row = None
                    elif (is_trap and result.needs_inform
                            and pending_trap is None
                            and engine_active and row[9]):
                        fire = cycle + 2
                        pending_trap = (fire, entry, row, result.mshr_id)
                        if fire > entry[0]:
                            entry[0] = fire
                continue

            complete = cycle + lat_list[row[0]]
            entry = [complete, seq, False, None, row[11], tq[1], tq[2]]
            inflight_append(entry)
            dest = row[2]
            if dest > 0:
                reg_ready[dest] = complete

            if cls == CLS_BRANCH:
                pidx = (row[7] >> 2) & pmask
                counter = ptable[pidx]
                plookups += 1
                taken = row[6] == 1
                if taken:
                    if counter < 3:
                        ptable[pidx] = counter + 1
                else:
                    if counter > 0:
                        ptable[pidx] = counter - 1
                if (counter >= 2) != taken:
                    pmisses += 1
                    stats.branch_mispredicts += 1
                    fb = complete + mispredict_penalty
                    if fb > fetch_blocked_until:
                        fetch_blocked_until = fb
                elif taken:
                    if cycle + 1 > fetch_blocked_until:
                        fetch_blocked_until = cycle + 1
            else:  # CLS_BLMISS
                if (is_cc and cc_row is not None and pending_trap is None
                        and engine_active and cc_row[9]):
                    fire = cc_outcome_cycle
                    if cycle + 1 > fire:
                        fire = cycle + 1
                    pending_trap = (fire, entry, cc_row, cc_mshr)
                    if fire > entry[0]:
                        entry[0] = fire
                cc_row = None

        # ---- bulk commit drain -----------------------------------------
        # When neither issue nor fetch made progress, nothing but
        # commits (and the armed trap, which bounds the window) can
        # happen until the earliest of: the trap firing, the issue
        # head's operands becoming ready, or fetch unblocking — none of
        # which a commit can accelerate (registers are written at
        # issue, and a full fetch queue only drains through issue).
        # Model every cycle up to that horizon in one pass over the
        # in-flight entries: idle stretches are charged in bulk to the
        # bucket the oldest entry dictates, and commit bursts replay
        # the per-cycle width-capped pops exactly.  A probe sees every
        # cycle, so it turns the drain off.
        if (issued == 0 and fetched == 0 and not trap_fired
                and probe is None):
            nxt = None
            if pending_trap is not None:
                nxt = pending_trap[0]
            if fetch_queue:
                hrow = fetch_queue[0][0]
                c1 = cycle + 1
                s1 = hrow[3]
                if s1 > 0 and reg_ready[s1] > c1:
                    c1 = reg_ready[s1]
                s2 = hrow[4]
                if s2 > 0 and reg_ready[s2] > c1:
                    c1 = reg_ready[s2]
                if nxt is None or c1 < nxt:
                    nxt = c1
            if ((frames or not stream_done)
                    and len(fetch_queue) < max_fetch_queue):
                c2 = fetch_blocked_until
                if c2 <= cycle:
                    c2 = cycle + 1
                if nxt is None or c2 < nxt:
                    nxt = c2
            # nxt is None ⇔ no trap, empty fetch queue, and nothing
            # left to fetch: the machine only drains from here.
            if nxt is None or nxt > cycle + 1:
                end = None if nxt is None else nxt - 1
                c = cycle + 1
                finished = False
                while end is None or c <= end:
                    if not inflight:
                        if end is None:
                            # Drained empty with no events pending: the
                            # interp loop broke in the iteration of the
                            # last commit, so no extra cycles accrue.
                            finished = True
                            break
                        n = end - c + 1
                        acc_cycles += n
                        acc_other += width * n
                        break
                    hd = inflight[0]
                    hc = hd[0]
                    if hc > c:
                        # Idle stretch until the oldest entry completes.
                        stop = hc if end is None or hc <= end else end + 1
                        n = stop - c
                        acc_cycles += n
                        if hd[2]:
                            acc_cache += width * n
                        else:
                            acc_other += width * n
                        c = stop
                        if end is not None and c > end:
                            break
                    # Commit burst at cycle c (same order as the loop
                    # head: pops, then accounting, then termination).
                    k = 0
                    while (inflight and k < width
                           and inflight[0][0] <= c):
                        entry = inflight.popleft()
                        if extended_mshrs and entry[3] is not None:
                            release_mshr(entry[3], False)
                        if entry[4]:
                            st_hand += 1
                        else:
                            st_app += 1
                            app_committed += 1
                            if app_committed == warmup_insts:
                                acc_cycles = acc_busy = 0
                                acc_cache = acc_other = 0
                                st_app = st_hand = 0
                                stats = core._reset_stats()
                                mstats = hierarchy.stats
                        k += 1
                    acc_cycles += 1
                    acc_busy += k
                    lost = width - k
                    if inflight and inflight[0][2] and inflight[0][0] > c:
                        acc_cache += lost
                    else:
                        acc_other += lost
                    if app_committed >= max_app_insts:
                        finished = True
                        break
                    if end is None and not inflight:
                        finished = True
                        break
                    c += 1
                if finished:
                    break
                cycle = end  # the loop tail advances to the horizon

        cycle += 1

    stats.app_instructions += st_app
    stats.handler_instructions += st_hand
    stats.record_cycles(acc_cycles, acc_busy, acc_cache, acc_other)
    predictor.lookups += plookups
    predictor.mispredicts += pmisses
    if probe is not None:
        probe.on_run_end(hierarchy)
    return stats
