"""Two-level non-blocking memory hierarchy with Table 1 timing.

The hierarchy is the single point the cores talk to.  Accesses are submitted
with a cycle number (non-decreasing); the hierarchy applies any fills whose
data has arrived, models bank and main-memory-port contention, and returns
an :class:`AccessResult` with the cycle the data is ready — or ``None`` when
no MSHR is free, in which case the core retries the access on a later cycle
(a structural stall, exactly how a lockup-free cache behaves).  Main memory
is one port that starts an access at most every ``mem_cycles_per_access``
cycles (Table 1's bandwidth row); an access arriving while it is busy
queues behind the previous one.

Fills are deferred: a missed line is installed only when its data returns.
That deferral is what makes the Section 3.3 guarantee implementable — a
pinned MSHR released as *squashed* after its fill invalidates the L1 line,
and one released (squashed) before its fill suppresses the install entirely.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.memory.cache import Cache
from repro.memory.config import CacheConfig, HierarchyConfig
from repro.memory.replacement import DEFAULT_REPLACEMENT_SEED
from repro.memory.mshr import MSHR, MSHRFile
from repro.memory.stats import MemStats


class AccessResult:
    """Timing outcome of one data-cache access.

    Attributes:
        l1_miss: True when the reference's hit/miss signal says *miss* —
            the condition that fires an informing memory operation.  Both
            primary and merged (secondary) misses raise it.
        level: 1 (L1 hit), 2 (L2 hit) or 3 (main memory); merged misses
            report the level of the miss they joined.
        start_cycle: when the access actually occupied a bank (>= the
            submitted cycle under contention).
        ready_cycle: when the data is available to dependents.
        mshr_id: the MSHR servicing the miss (primary or merged), else None.
        merged: True when this was a secondary miss on an in-flight line.
        needs_inform: True when this reference should invoke the informing
            mechanism — it initiated a line fetch, or merged with one whose
            handler has not yet run (the triggering reference was squashed
            before its trap was taken, or the fetch was a prefetch).
            Informing fires once per line fetch (Section 3.3: the access
            check happens "every time a new line is fetched into the
            cache"); cores call :meth:`MemoryHierarchy.mark_informed` when
            the handler is actually taken.
    """

    __slots__ = ("l1_miss", "level", "start_cycle", "ready_cycle",
                 "mshr_id", "merged", "needs_inform")

    def __init__(self, l1_miss: bool, level: int, start_cycle: int,
                 ready_cycle: int, mshr_id: Optional[int] = None,
                 merged: bool = False, needs_inform: bool = False) -> None:
        # A plain __slots__ class, not a dataclass: one AccessResult is
        # built per data access, and the frozen-dataclass __init__ (seven
        # object.__setattr__ calls) was measurable on the L1-hit path.
        self.l1_miss = l1_miss
        self.level = level
        self.start_cycle = start_cycle
        self.ready_cycle = ready_cycle
        self.mshr_id = mshr_id
        self.merged = merged
        self.needs_inform = needs_inform

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AccessResult(l1_miss={self.l1_miss}, level={self.level}, "
                f"start_cycle={self.start_cycle}, "
                f"ready_cycle={self.ready_cycle}, mshr_id={self.mshr_id}, "
                f"merged={self.merged}, needs_inform={self.needs_inform})")


class MemoryHierarchy:
    """L1 data cache + unified L2 + bandwidth-limited memory (+ optional L1I)."""

    def __init__(
        self,
        config: HierarchyConfig,
        icache: Optional[CacheConfig] = None,
        extended_mshr_lifetime: bool = False,
        stream_buffers: int = 0,
        replacement_policy: Optional[str] = None,
        replacement_seed: int = DEFAULT_REPLACEMENT_SEED,
    ) -> None:
        self.config = config
        if replacement_policy is None:
            replacement_policy = config.replacement_policy
        self.replacement_policy = replacement_policy
        self.l1 = Cache(config.l1, "L1D", policy=replacement_policy,
                        seed=replacement_seed)
        self.l2 = Cache(config.l2, "L2", policy=replacement_policy,
                        seed=replacement_seed)
        # The instruction cache stays true LRU: the paper's handler-overhead
        # model only needs first-touch cost, and the policy ablations are
        # about the data side.
        self.icache = Cache(icache, "L1I") if icache is not None else None
        self.mshrs = MSHRFile(config.mshr_count, extended_mshr_lifetime)
        # The main-memory port: the first cycle a new access may start.
        self._mem_free = 0
        self.stats = MemStats()
        # Jouppi-style stream buffers [Jou90] — the purely-hardware
        # alternative the paper's introduction contrasts informing
        # operations with.  Each buffer tracks one sequential stream with
        # several prefetches in flight (FIFO of depth entries): a demand
        # miss matching the buffer head is satisfied from the buffer and
        # the stream advances; a miss matching nothing reallocates the
        # least-recently-used buffer.
        self.stream_buffer_depth = 4
        self._stream_buffers = [
            {"entries": [], "tail": -1, "last_used": 0}
            for _ in range(stream_buffers)]
        self.stream_buffer_hits = 0
        self._line_shift = config.l1.line_size.bit_length() - 1
        self._bank_free: List[int] = [0] * config.data_banks
        self._num_banks = config.data_banks
        self._l1_hit_latency = config.l1_hit_latency
        # Pending fills: (ready_cycle, seq, mshr_id, line_addr, dirty, from_mem)
        self._pending: List[Tuple[int, int, int, int, bool, bool]] = []
        self._fill_seq = 0
        self._last_cycle = 0
        self.i_accesses = 0
        self.i_misses = 0
        # Attached instrument (repro.probe); None keeps every hook to one
        # identity test.
        self._probe = None
        # Optional L1 fill filter (adaptive bypass, repro.apps.bypass):
        # called with the byte address of an arriving fill; returning True
        # skips the L1 install (the line still lands in the L2).  None
        # keeps the cost to one identity test per fill.
        self.bypass_filter = None
        self.bypassed_fills = 0

    # -- internal helpers ----------------------------------------------------
    def _apply_fills(self, cycle: int) -> None:
        """Install lines whose data has arrived by *cycle*.

        One frame per call: the bank clocks and the MSHR file's maps are
        read directly, and each filled entry retires here exactly as
        :meth:`MSHRFile.mark_filled` retires one.
        """
        pending = self._pending
        probe = self._probe
        mshrs = self.mshrs
        entries = mshrs._entries
        by_line = mshrs._by_line
        mshr_probe = mshrs._probe
        line_shift = self._line_shift
        bank_free = self._bank_free
        stats = self.stats
        while pending and pending[0][0] <= cycle:
            ready, _seq, mshr_id, line_addr, dirty, from_mem = heappop(
                pending)
            if probe is not None:
                probe.on_fill_arrival(ready)
            byte_addr = line_addr << line_shift
            if from_mem:
                self._install_l2(byte_addr)
            entry = entries.get(mshr_id)
            if entry is None:
                # Squashed before the data returned: the MSHR drop already
                # stopped the forward; we also skip the L1 install.  The L2
                # install above still happens — the paper's "effectively
                # prefetched into the second-level cache".
                continue
            if self.bypass_filter is not None and self.bypass_filter(byte_addr):
                # Adaptive bypass: the handler judged this line dead on
                # arrival, so it never enters the L1 (no bank fill, no
                # victim).  The line stays in the L2; a dirty merge writes
                # through to the L2 copy instead.
                self.bypassed_fills += 1
                if dirty:
                    self.l2.probe(byte_addr, is_write=True)
            else:
                # The fill occupies its bank for fill_time cycles.
                bank = line_addr % self._num_banks
                start = bank_free[bank]
                if start > ready:
                    stats.bank_conflict_cycles += start - ready
                else:
                    start = ready
                bank_free[bank] = start + self.config.fill_time
                victim = self.l1.fill(byte_addr, dirty=dirty)
                if victim is not None and victim.dirty:
                    stats.writebacks_l1 += 1
                    self.l2.probe(victim.line_addr << line_shift,
                                  is_write=True)
            # Retire: a filled entry stops being a merge target, and
            # leaves the file unless an extended lifetime pins it.
            entry.filled = True
            if by_line.get(entry.line_addr) is entry:
                del by_line[entry.line_addr]
            if not entry.pinned:
                del entries[mshr_id]
            if mshr_probe is not None:
                mshr_probe.on_mshr_fill(mshrs, entry)

    def _install_l2(self, byte_addr: int) -> None:
        victim = self.l2.fill(byte_addr)
        if victim is not None:
            if victim.dirty:
                # The writeback takes the memory port.
                self.stats.writebacks_l2 += 1
                self._mem_free = (max(self._last_cycle, self._mem_free)
                                  + self.config.mem_cycles_per_access)
            # Maintain inclusion: an L2 eviction purges the L1 copy.
            self.l1.invalidate(victim.line_addr << self._line_shift)

    # -- public API ----------------------------------------------------------
    def access(self, addr: int, is_write: bool, cycle: int,
               prefetch: bool = False) -> Optional[AccessResult]:
        """Submit a data access at *cycle*; see the module docstring.

        Cycles must be non-decreasing across calls.  Returns None when the
        access could not be accepted (MSHR file full, or a dropped
        prefetch); demand accesses must then be retried.
        """
        if cycle < self._last_cycle:
            raise ValueError(
                f"accesses must be submitted in cycle order "
                f"({cycle} < {self._last_cycle})")
        self._last_cycle = cycle
        pending = self._pending
        if pending and pending[0][0] <= cycle:
            self._apply_fills(cycle)
        probe = self._probe
        if probe is not None:
            probe.on_access(self, cycle)
        line_addr = addr >> self._line_shift
        stats = self.stats

        if prefetch:
            stats.prefetches += 1
        else:
            stats.l1_accesses += 1

        # -- L1-hit fast path ------------------------------------------------
        # The overwhelmingly common case (the paper's §2 premise): resolve a
        # primary-cache hit with one dict lookup, an O(1) recency refresh,
        # and an inline bank claim — no Cache.probe call frame.
        l1 = self.l1
        cache_set = l1._sets[line_addr & l1._set_mask]
        dirty = cache_set.get(line_addr)
        bank_free = self._bank_free
        bank = line_addr % self._num_banks
        if dirty is not None:
            if l1._is_lru:
                del cache_set[line_addr]
                cache_set[line_addr] = dirty or is_write
            else:
                if is_write:
                    cache_set[line_addr] = True
                stateful = l1._stateful
                if stateful is not None:
                    stateful.on_hit(line_addr & l1._set_mask, line_addr)
            if not prefetch:
                stats.l1_hits += 1
                if probe is not None:
                    probe.on_l1_hit(line_addr, is_write)
            start = bank_free[bank]
            if start > cycle:
                stats.bank_conflict_cycles += start - cycle
            else:
                start = cycle
            bank_free[bank] = start + 1
            return AccessResult(False, 1, start, start + self._l1_hit_latency)

        if self._stream_buffers and not prefetch:
            buffer = self._match_stream_buffer(line_addr)
            if buffer is not None:
                # The line is the head of a stream buffer.  If its prefetch
                # has completed this is a fast near-hit; otherwise the
                # reference waits on the in-flight buffer fetch (it does
                # not start a second one).  Either way the head is consumed
                # and the buffer tops itself up to depth.
                self.stream_buffer_hits += 1
                buffer["last_used"] = cycle
                _line, fetch_ready = buffer["entries"].pop(0)
                arrived = fetch_ready <= cycle
                start = bank_free[bank]
                if start > cycle:
                    stats.bank_conflict_cycles += start - cycle
                else:
                    start = cycle
                bank_free[bank] = start + 1
                ready = max(fetch_ready, start) + self.config.l1_hit_latency
                if arrived:
                    stats.l1_hits += 1
                else:
                    stats.l1_misses += 1
                if probe is not None:
                    probe.on_stream_buffer(line_addr, arrived)
                self.l1.fill(addr, dirty=is_write)
                self._top_up_stream_buffer(buffer, cycle)
                return AccessResult(not arrived, 1, start, ready,
                                    needs_inform=not arrived)

        # -- miss path -------------------------------------------------------
        # One frame: the MSHR file's maps, the bank clock and the memory
        # port are read and written here, as MSHRFile.merge/allocate would.
        mshrs = self.mshrs
        by_line = mshrs._by_line
        write = is_write and not prefetch
        entry = by_line.get(line_addr)
        if entry is not None:
            # Secondary miss: merge into the in-flight fetch.
            entry.merged += 1
            if write:
                entry.is_write = True
            if mshrs._probe is not None:
                mshrs._probe.on_mshr_merge(mshrs, entry)
            if not prefetch:
                stats.l1_secondary_misses += 1
                if probe is not None:
                    probe.on_l1_merge(line_addr, entry.mshr_id,
                                      entry.data_ready)
            return AccessResult(True, 0, cycle, entry.data_ready,
                                entry.mshr_id, True, not entry.informed)

        entries = mshrs._entries
        if len(entries) >= mshrs.count:
            if prefetch:
                stats.prefetches_dropped += 1
            else:
                stats.mshr_stalls += 1
            return None

        if not prefetch:
            stats.l1_misses += 1
        start = bank_free[bank]
        if start > cycle:
            stats.bank_conflict_cycles += start - cycle
        else:
            start = cycle
        bank_free[bank] = start + 1
        stats.l2_accesses += 1
        config = self.config
        if self.l2.probe(addr):
            stats.l2_hits += 1
            level = 2
            data_ready = start + config.l1_to_l2_latency
            from_mem = False
        else:
            stats.l2_misses += 1
            level = 3
            mem_start = self._mem_free
            if mem_start < start:
                mem_start = start
            self._mem_free = mem_start + config.mem_cycles_per_access
            data_ready = mem_start + config.l1_to_mem_latency
            from_mem = True

        # Primary miss: allocate an MSHR (the full check above guarantees
        # a free register).
        mshr_id = mshrs._next_id
        mshrs._next_id = mshr_id + 1
        entry = MSHR(mshr_id, line_addr, data_ready, write,
                     mshrs.extended_lifetime)
        entries[mshr_id] = entry
        by_line[line_addr] = entry
        if len(entries) > mshrs.high_water:
            mshrs.high_water = len(entries)
        if mshrs._probe is not None:
            mshrs._probe.on_mshr_alloc(mshrs, entry)
        if probe is not None and not prefetch:
            probe.on_l1_miss(line_addr, level, start, data_ready, mshr_id)
        self._fill_seq += 1
        heappush(pending, (data_ready, self._fill_seq, mshr_id, line_addr,
                           write, from_mem))
        if self._stream_buffers and not prefetch:
            # A miss that matched no buffer starts a new stream behind it.
            self._allocate_stream_buffer(line_addr + 1, data_ready)
        return AccessResult(True, level, start, data_ready, mshr_id, False,
                            True)

    # -- stream buffers (hardware baseline) -----------------------------------
    def _match_stream_buffer(self, line_addr: int):
        for buffer in self._stream_buffers:
            if buffer["entries"] and buffer["entries"][0][0] == line_addr:
                return buffer
        return None

    def _fetch_into_stream_buffer(self, buffer: dict, cycle: int) -> None:
        line_addr = buffer["tail"] + 1
        buffer["tail"] = line_addr
        byte_addr = line_addr << self._line_shift
        if self.l2.probe(byte_addr):
            ready = cycle + self.config.l1_to_l2_latency
        else:
            start = max(cycle, self._mem_free)
            self._mem_free = start + self.config.mem_cycles_per_access
            ready = start + self.config.l1_to_mem_latency
            # The fetched line is installed in the L2 as it passes through;
            # modelled at request time (a slight idealisation that only
            # matters if an unrelated reference touches the line first).
            self._install_l2(byte_addr)
        buffer["entries"].append((line_addr, ready))

    def _top_up_stream_buffer(self, buffer: dict, cycle: int) -> None:
        while len(buffer["entries"]) < self.stream_buffer_depth:
            self._fetch_into_stream_buffer(buffer, cycle)

    def _allocate_stream_buffer(self, line_addr: int, cycle: int) -> None:
        victim = min(self._stream_buffers, key=lambda b: b["last_used"])
        victim["last_used"] = cycle
        victim["entries"] = []
        victim["tail"] = line_addr - 1
        self._top_up_stream_buffer(victim, cycle)

    def mark_informed(self, mshr_id: int) -> None:
        """A miss handler ran for this line fetch (see AccessResult)."""
        entry = self.mshrs._entries.get(mshr_id)
        if entry is not None:
            entry.informed = True

    def release_mshr(self, mshr_id: int, squashed: bool) -> None:
        """Extended-lifetime release (graduate or squash) of a pinned MSHR."""
        probe = self._probe
        entry = self.mshrs.get(mshr_id) if probe is not None else None
        line_addr = self.mshrs.release(mshr_id, squashed)
        if line_addr is not None:
            if self.l1.invalidate(line_addr << self._line_shift):
                self.stats.squash_invalidations += 1
        if entry is not None:
            probe.on_mshr_release(self, entry, squashed)

    def ifetch(self, pc: int, cycle: int) -> int:
        """Instruction fetch; returns the cycle the fetch block is available.

        Modelled blocking and without MSHRs: handler-code fetch misses are
        rare after warm-up, and the paper's overhead model only needs their
        first-touch cost.
        """
        if self.icache is None:
            return cycle
        self.i_accesses += 1
        if self.icache.probe(pc):
            return cycle
        self.i_misses += 1
        if self.l2.probe(pc):
            latency = self.config.l1_to_l2_latency
        else:
            self._install_l2(pc)
            latency = self.config.l1_to_mem_latency
        self.icache.fill(pc)
        return cycle + latency

    def drain(self) -> int:
        """Apply all pending fills; return the last fill-ready cycle."""
        last = self._last_cycle
        if self._pending:
            last = max(last, max(p[0] for p in self._pending))
            self._apply_fills(last)
            self._last_cycle = max(self._last_cycle, last)
        return last
