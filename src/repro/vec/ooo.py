"""Flat event-driven replay of the out-of-order core (digit-exact).

Same contract as :mod:`repro.vec.inorder`, for
:class:`repro.ooo.OutOfOrderCore`: identical memory-hierarchy objects
and statistics, row tuples instead of DynInst objects, the inlined
L1/icache hit fast paths, bulk skipping of provably-idle cycles, and
the same probe hooks (which turn the inline hits and the skip off).
Stream buffers and wrong-path fetch (``wrong_path_factory``) are not
replayed here; they stay on the interp backend.

The replay entry mirrors ``repro.ooo.core._Entry`` field-for-field
but is a plain list (a class instance costs ~3x as much to allocate,
and tens of thousands of entries are created per cell).  Slot layout::

    0 row     13-tuple (repro.isa.rows.COLUMNS order)
    1 serial  stream frame serial (0 = app stream)
    2 idx     index within the frame
    3 seq     dispatch order, unique per entry
    4 state   0 = waiting, 1 = issued
    5 dep1    producer entry of src1 (None when ready at dispatch)
    6 dep2    producer entry of src2
    7 complete_cycle   set at issue
    8 was_miss
    9 needs_inform
    10 mshr_id
    11 holds_shadow
    12 trap_pending
    13 cc_ref  the mem entry a BLMISS probe reads
    14 squashed
    15 outcome_cycle   hit/miss known (tag check)
    16 ready_at  cached max of dep/cc-ref event cycles (0 = unknown);
       valid once all producers have issued — their completes never
       move afterwards, so the issue scan can skip a blocked entry on
       one compare instead of re-walking its dependencies.
"""

from __future__ import annotations

from collections import deque

from repro.core.mechanisms import Mechanism, TrapStyle, return_pc
from repro.isa.rows import (
    CLS_BLMISS,
    CLS_BRANCH,
    CLS_MEM,
    OP_LOAD,
    OP_PREFETCH,
    OP_STORE,
)
from repro.pipeline.stream import SharedStream
from repro.vec.decode import FlatHandlers


def run_ooo_vec(core, stream: SharedStream, max_app_insts: int,
                warmup_insts: int):
    """Replay *stream*'s rows through *core* (an OutOfOrderCore); return its
    stats.

    Preconditions (dispatcher-guaranteed): no stream buffers, no
    wrong-path factory, GenericHandler-or-no handler.
    """
    config = core.config
    engine = core.engine
    hierarchy = core.hierarchy
    predictor = core.predictor
    if hierarchy._stream_buffers or core.wrong_path_factory is not None:
        raise ValueError("vec kernel cannot replay stream buffers or "
                         "wrong-path fetch; use the interp backend")
    probe = hierarchy._probe

    width = config.issue_width
    rob_size = config.rob_size
    shadow_branches = config.shadow_branches
    stats = core.stats
    mstats = hierarchy.stats

    engine_active = engine.enabled and engine.config.active
    is_cc = engine.config.mechanism is Mechanism.CONDITION_CODE
    is_trap = engine.config.mechanism is Mechanism.TRAP
    branch_like = engine.config.trap_style is TrapStyle.BRANCH_LIKE
    mem_shadow = (is_trap and branch_like and engine.config.active
                  and engine.enabled)
    handlers = FlatHandlers(engine.config.handler) if engine_active else None
    handler_len = handlers.body_length if handlers is not None else 0

    fu_counts = [config.int_units, config.fp_units, config.branch_units,
                 config.mem_units, 1 << 30]
    mem_on_int = config.mem_units == 0
    fmap = [0, 1, 2, 0 if mem_on_int else 3, 4]
    fu_avail = list(fu_counts)

    ptable = predictor._table
    pmask = predictor.entries - 1
    plookups = 0
    pmisses = 0

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
    mshr_is_informed = hierarchy.mshrs.is_informed
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

    app_rows = stream.insts
    stream_grow = stream.grow
    app_pos = 0
    app_avail = len(app_rows)
    frames = []
    next_serial = 1

    rob = deque()
    rob_append = rob.append
    rob_popleft = rob.popleft
    waiting = []
    waiting_append = waiting.append
    rename = {}
    rename_get = rename.get
    shadow_in_use = 0
    fetch_blocked_until = 0
    halted_on_branch = None
    last_fetch_line = -1
    last_mem_entry = None
    armed_traps = []
    cycle = 0
    seq = 0
    app_committed = 0
    stream_done = False
    acc_cycles = acc_busy = acc_cache = acc_other = 0
    # app/handler graduation tallies are kept in locals and flushed to
    # the stats object once at the end (and discarded at the warmup
    # reset, exactly like the interp core's counters are).
    st_app = 0
    st_hand = 0

    def rewind_after(serial, idx):
        """stack.rewind_after for the flat frame stack."""
        nonlocal app_pos
        if serial == 0:
            if frames:
                del frames[:]
            app_pos = idx + 1
        else:
            while frames[-1][0] != serial:
                frames.pop()
            frames[-1][1] = idx + 1

    def squash_after(boundary):
        """Remove everything younger than *boundary* from the machine."""
        nonlocal shadow_in_use, last_mem_entry, last_fetch_line
        nonlocal halted_on_branch, stream_done
        bseq = boundary[3]
        while rob and rob[-1][3] > bseq:
            victim = rob.pop()
            victim[14] = True
            if victim[11]:
                shadow_in_use -= 1
            vm = victim[10]
            if vm is not None and extended_mshrs:
                release_mshr(vm, True)
        rename.clear()
        for entry in rob:
            dest = entry[0][2]
            if dest > 0:
                rename[dest] = entry
        if armed_traps:
            armed_traps[:] = [
                pair for pair in armed_traps if not pair[1][14]]
        if last_mem_entry is not None and last_mem_entry[14]:
            last_mem_entry = None
        if halted_on_branch is not None and halted_on_branch[14]:
            halted_on_branch = None
        last_fetch_line = -1
        stream_done = False

    def take_trap(boundary, ref_row, fire_cycle, mshr_id):
        """Invoke the informing handler, squashing after *boundary*."""
        nonlocal fetch_blocked_until, next_serial
        # Fire once per line fetch: skip if another trap for the same
        # fetch already ran.
        if mshr_id is not None and mshr_is_informed(mshr_id):
            return
        engine.invocations += 1
        engine.mhrr = return_pc(ref_row[7])
        body = handlers.body(ref_row[7])
        engine.injected_instructions += handler_len
        if probe is not None:
            probe.on_trap(engine, ref_row[7], ref_row[5], fire_cycle,
                          handler_len)
        if mshr_id is not None:
            hierarchy.mark_informed(mshr_id)
        squash_after(boundary)
        rewind_after(boundary[1], boundary[2])
        frames.append([next_serial, 0, body, len(body)])
        next_serial += 1
        fb = fire_cycle + mispredict_penalty
        if fb > fetch_blocked_until:
            fetch_blocked_until = fb
        stats.informing_mispredicts += 1
        stats.handler_invocations += 1

    while True:
        # ---- branch-like informing traps fire --------------------------
        trap_fired = False
        if armed_traps:
            due = None
            for pair in armed_traps:
                if pair[0] <= cycle and not pair[1][14]:
                    if due is None or pair[1][3] < due[1][3]:
                        due = pair
            if due is not None:
                trap_fired = True
                entry = due[1]
                armed_traps.remove(due)
                take_trap(entry, entry[0], cycle, entry[10])

        # ---- graduation -------------------------------------------------
        graduated = 0
        trap_fired_at_head = False
        if probe is not None:
            # The oldest trap still due (they fire one per cycle).
            due_seq = min((e[3] for f, e in armed_traps
                           if f <= cycle and not e[14]), default=None)
        while rob and graduated < width:
            entry = rob[0]
            if entry[4] != 1 or entry[7] > cycle:
                break
            rob_popleft()
            mshr = entry[10]
            if extended_mshrs and mshr is not None:
                release_mshr(mshr, False)
            row = entry[0]
            dest = row[2]
            if dest > 0 and rename_get(dest) is entry:
                del rename[dest]
            if probe is not None:
                probe.on_commit(entry[3], entry[7], cycle, row[11], due_seq)
            if row[11]:
                st_hand += 1
            else:
                st_app += 1
                app_committed += 1
                if app_committed == warmup_insts:
                    acc_cycles = acc_busy = acc_cache = acc_other = 0
                    st_app = st_hand = 0
                    stats = core._reset_stats()
                    mstats = hierarchy.stats
            graduated += 1
            if entry[12]:
                # Exception-style informing trap: flush as though the
                # next instruction excepted.
                if rob:
                    take_trap(entry, row, cycle, mshr)
                else:
                    # Nothing younger to squash; still invoke handler.
                    # (Mirrors the interp core: no informed-check here.)
                    engine.invocations += 1
                    engine.mhrr = return_pc(row[7])
                    body = handlers.body(row[7])
                    engine.injected_instructions += handler_len
                    if probe is not None:
                        probe.on_trap(engine, row[7], row[5], cycle,
                                      handler_len)
                    if mshr is not None:
                        hierarchy.mark_informed(mshr)
                    rewind_after(entry[1], entry[2])
                    frames.append([next_serial, 0, body, len(body)])
                    next_serial += 1
                    fb = cycle + mispredict_penalty
                    if fb > fetch_blocked_until:
                        fetch_blocked_until = fb
                    stats.informing_mispredicts += 1
                    stats.handler_invocations += 1
                trap_fired_at_head = True
                break
        head = rob[0] if rob else None
        acc_cycles += 1
        acc_busy += graduated
        lost = width - graduated
        if (head is not None and head[8] and head[4] == 1
                and head[7] > cycle):
            acc_cache += lost
            if probe is not None:
                probe.on_slots(cycle, graduated, lost, True)
        else:
            acc_other += lost
            if probe is not None:
                probe.on_slots(cycle, graduated, lost, False)

        if app_committed >= max_app_insts:
            break
        if stream_done and not rob:
            break

        # ---- fetch / dispatch ------------------------------------------
        fetched = 0
        if (cycle >= fetch_blocked_until and halted_on_branch is None
                and not trap_fired_at_head):
            while fetched < width and len(rob) < rob_size:
                if shadow_in_use >= shadow_branches:
                    break  # out of shadow state: front end stalls
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
                        if serial:
                            fr[1] = idx
                        else:
                            app_pos = idx
                        fetch_blocked_until = ready
                        last_fetch_line = -1
                        break
                s1 = row[3]
                d1 = rename_get(s1) if s1 > 0 else None
                s2 = row[4]
                d2 = rename_get(s2) if s2 > 0 else None
                seq += 1
                entry = [row, serial, idx, seq, 0, d1, d2, None, False,
                         False, None, False, False, None, False, None, 0]
                dest = row[2]
                if dest > 0:
                    rename[dest] = entry
                cls = row[12]
                if cls == CLS_BRANCH:
                    entry[11] = True
                    shadow_in_use += 1
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
                        rob_append(entry)
                        waiting_append(entry)
                        fetched += 1
                        halted_on_branch = entry
                        break
                    if taken:
                        # Correct taken prediction: one fetch bubble.
                        rob_append(entry)
                        waiting_append(entry)
                        fetched += 1
                        if cycle + 1 > fetch_blocked_until:
                            fetch_blocked_until = cycle + 1
                        break
                elif cls == CLS_BLMISS:
                    entry[11] = True
                    shadow_in_use += 1
                    entry[13] = last_mem_entry
                elif cls == CLS_MEM and row[0] != OP_PREFETCH:
                    if mem_shadow and row[9] and not row[10]:
                        entry[11] = True
                        shadow_in_use += 1
                    if not row[10]:
                        last_mem_entry = entry
                rob_append(entry)
                waiting_append(entry)
                fetched += 1

        # ---- issue -------------------------------------------------------
        fu_avail[:] = fu_counts
        issued = 0
        read = 0
        write = 0
        waiting_len = len(waiting)
        while read < waiting_len:
            entry = waiting[read]
            read += 1
            if entry[4] != 0 or entry[14]:
                continue  # compact away
            ra = entry[16]
            if ra > cycle:
                waiting[write] = entry
                write += 1
                continue
            if ra == 0:
                # Dependency cycles not cached yet: walk the producers.
                m = 0
                dep = entry[5]
                if dep is not None:
                    dc = dep[7]
                    if dc is None:
                        waiting[write] = entry
                        write += 1
                        continue
                    if dc > m:
                        m = dc
                dep = entry[6]
                if dep is not None:
                    dc = dep[7]
                    if dc is None:
                        waiting[write] = entry
                        write += 1
                        continue
                    if dc > m:
                        m = dc
                ref = entry[13]
                if ref is not None:
                    # hit/miss condition code written at the tag check
                    oc = ref[15]
                    if oc is None:
                        waiting[write] = entry
                        write += 1
                        continue
                    if oc > m:
                        m = oc
                if m > cycle:
                    entry[16] = m
                    waiting[write] = entry
                    write += 1
                    continue
            row = entry[0]
            code = fmap[row[1]]
            avail = fu_avail[code]
            if avail <= 0:
                waiting[write] = entry
                write += 1
                continue
            fu_avail[code] = avail - 1
            cls = row[12]

            if cls == 0:  # CLS_PLAIN — the bulk of the stream
                entry[4] = 1
                entry[7] = cycle + lat_list[row[0]]
                issued += 1
                if issued >= width:
                    break
                continue

            if cls == CLS_MEM:
                op = row[0]
                addr = row[5]
                if op == OP_PREFETCH:
                    result = hier_access(addr, False, cycle, prefetch=True)
                    entry[4] = 1
                    if result is None:
                        entry[7] = cycle + 1
                    else:
                        entry[10] = result.mshr_id
                        entry[15] = cycle + 2
                        entry[7] = cycle + 1
                    issued += 1
                    if issued >= width:
                        break
                    continue
                is_store = op == OP_STORE
                # Inlined L1-hit fast path (see repro.vec.inorder).
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
                    entry[4] = 1
                    entry[15] = cycle + 2
                    if op == OP_LOAD:
                        entry[7] = start + l1_hit_latency
                    else:
                        entry[7] = cycle + 1
                else:
                    result = hier_access(addr, is_store, cycle,
                                         prefetch=False)
                    if result is None:
                        # MSHR full: retry next cycle
                        waiting[write] = entry
                        write += 1
                        continue
                    entry[4] = 1
                    entry[8] = result.l1_miss
                    entry[9] = result.needs_inform
                    if probe is not None and entry[9] and not row[10]:
                        probe.on_inform_signal(result)
                    entry[10] = result.mshr_id
                    entry[15] = cycle + 2
                    if op == OP_LOAD:
                        entry[7] = result.ready_cycle
                    else:
                        entry[7] = cycle + 1
                issued += 1
                if (entry[9] and is_trap
                        and engine_active and row[9] and not row[10]):
                    if branch_like:
                        armed_traps.append((entry[15], entry))
                        # The implicit branch resolves at the tag check;
                        # the op cannot graduate before its trap fires.
                        if entry[15] > entry[7]:
                            entry[7] = entry[15]
                    else:
                        entry[12] = True
                if entry[11] and branch_like:
                    # Shadow state frees once the outcome is known.
                    entry[11] = False
                    shadow_in_use -= 1
                if issued >= width:
                    break
                continue

            entry[4] = 1
            entry[7] = cycle + lat_list[row[0]]
            issued += 1
            if cls == CLS_BRANCH:
                if entry[11]:
                    entry[11] = False
                    shadow_in_use -= 1
                if halted_on_branch is entry:
                    halted_on_branch = None
                    squash_after(entry)  # nothing younger in this mode
                    fb = entry[7] + mispredict_penalty
                    if fb > fetch_blocked_until:
                        fetch_blocked_until = fb
                    break  # the machine just flushed; stop issuing
            elif cls == CLS_BLMISS:
                if entry[11]:
                    entry[11] = False
                    shadow_in_use -= 1
                ref = entry[13]
                if (is_cc and ref is not None and ref[9]
                        and engine_active and ref[0][9]
                        and not ref[0][10]):
                    take_trap(entry, ref[0], cycle, ref[10])
                    break  # the machine state just changed wholesale
            if issued >= width:
                break
        # Splice the unscanned tail over the compacted-away prefix.
        if write != read:
            waiting[write:] = waiting[read:]

        # ---- event skip (off while a probe watches every cycle) --------
        if (graduated == 0 and issued == 0 and fetched == 0
                and not trap_fired and probe is None):
            nxt = None
            for f, e2 in armed_traps:
                if not e2[14] and (nxt is None or f < nxt):
                    nxt = f
            if head is not None:
                if head[4] == 1 and (nxt is None or head[7] < nxt):
                    nxt = head[7]
            skip_floor = cycle + 1
            for e2 in waiting:
                if e2[4] != 0 or e2[14]:
                    continue
                te = e2[16]
                if te <= cycle:
                    # Not cached (or already due): recompute the bound.
                    te = skip_floor
                    dep = e2[5]
                    if dep is not None:
                        dc = dep[7]
                        if dc is None:
                            continue  # waits on another waiting entry
                        if dc > te:
                            te = dc
                    dep = e2[6]
                    if dep is not None:
                        dc = dep[7]
                        if dc is None:
                            continue
                        if dc > te:
                            te = dc
                    ref2 = e2[13]
                    if ref2 is not None:
                        oc = ref2[15]
                        if oc is None:
                            continue
                        if oc > te:
                            te = oc
                if nxt is None or te < nxt:
                    nxt = te
                    if te <= skip_floor:
                        break
            if (halted_on_branch is None and (frames or not stream_done)
                    and len(rob) < rob_size
                    and shadow_in_use < shadow_branches):
                tf = fetch_blocked_until
                if tf <= cycle:
                    tf = skip_floor
                if nxt is None or tf < nxt:
                    nxt = tf
            if nxt is not None and nxt > skip_floor:
                n = nxt - skip_floor
                acc_cycles += n
                if head is not None and head[8] and head[4] == 1:
                    acc_cache += width * n
                else:
                    acc_other += width * n
                cycle = nxt - 1

        cycle += 1

    stats.app_instructions += st_app
    stats.handler_instructions += st_hand
    stats.record_cycles(acc_cycles, acc_busy, acc_cache, acc_other)
    predictor.lookups += plookups
    predictor.mispredicts += pmisses
    if probe is not None:
        probe.on_run_end(hierarchy)
    return stats
