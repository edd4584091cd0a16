"""The :class:`Observer`: cycle-stamped event capture + live metrics.

The observer is a :class:`repro.probe.Probe`, attached to a core (or a
bare hierarchy) like the sanitizer, on either backend; every hook site
costs one ``if probe is not None`` identity test when tracing is off.
All hooks are strictly read-only with respect to simulator state — they
never touch recency order, MSHR bookkeeping or pipeline structures — so
a traced run is bit-exact with an untraced one (the ``obs`` and
``vec-obs`` modes of ``tests/test_golden_parity.py`` replay the golden
``figure2 --quick`` cells with ``trace_events`` set to prove it).

The observer keeps three things:

* ``events`` — the ordered list of cycle-stamped event dicts (see
  :mod:`repro.obs.events` for the taxonomy);
* ``metrics`` — a :class:`repro.obs.metrics.Registry` of counters and
  histograms (miss latency, handler length, MSHR occupancy);
* dedicated structures a flat registry does not fit: per-set conflict
  heat per cache, and the MSHR occupancy high-water timeline.

:meth:`on_warmup_reset` drops everything at the cores' warm-up boundary
(alongside the statistics reset), so a run's trace covers exactly the
measured region and event counts reconcile with the reported aggregates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev
from repro.probe import Probe


class Observer(Probe):
    """One run's tracing + metrics state.

    Args:
        trace: capture the per-event list.  False keeps only metrics.
    """

    def __init__(self, trace: bool = True) -> None:
        self.trace = trace
        self.cycle = 0
        self.events: List[Dict[str, Any]] = []
        from repro.obs.metrics import Registry
        self.metrics = Registry()
        #: cache name -> {set index -> evictions} (conflict heat).
        self.conflict_heat: Dict[str, Dict[int, int]] = {}
        #: (cycle, occupancy) appended whenever MSHR occupancy reaches a
        #: new high-water mark within the observed region.
        self.mshr_timeline: List[Tuple[int, int]] = []
        self._mshr_high = 0
        # Open informing-handler commit run: [start_cycle, committed].
        self._handler_run: Optional[List[int]] = None

    def on_warmup_reset(self) -> None:
        """Warm-up boundary: drop everything observed so far."""
        self.events.clear()
        from repro.obs.metrics import Registry
        self.metrics = Registry()
        self.conflict_heat.clear()
        self.mshr_timeline.clear()
        self._mshr_high = 0
        self._handler_run = None

    def on_run_end(self, hierarchy) -> None:
        """End of run: close any handler run still open at the last commit."""
        self._close_handler_run(self.cycle)

    # -- access outcomes (hierarchy) -----------------------------------------
    def on_access(self, hierarchy, cycle: int) -> None:
        """Every demand/prefetch data access, before its outcome is known."""
        self.cycle = cycle
        self.metrics.counter("accesses").inc()

    def on_l1_hit(self, line_addr: int, is_write: bool) -> None:
        self.metrics.counter(ev.L1_HIT).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.L1_HIT,
                                "line": line_addr, "write": is_write})

    def on_l1_miss(self, line_addr: int, level: int, start: int, ready: int,
                   mshr_id: Optional[int]) -> None:
        self.metrics.counter(ev.L1_MISS).inc()
        self.metrics.counter("l2.hit" if level == 2 else "l2.miss").inc()
        self.metrics.histogram("miss_latency").record(ready - start)
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.L1_MISS,
                                "line": line_addr, "level": level,
                                "start": start, "ready": ready,
                                "mshr": mshr_id})

    def on_l1_merge(self, line_addr: int, mshr_id: int, ready: int) -> None:
        self.metrics.counter(ev.L1_MERGE).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.L1_MERGE,
                                "line": line_addr, "mshr": mshr_id,
                                "ready": ready})

    def on_stream_buffer(self, line_addr: int, arrived: bool) -> None:
        """A demand access satisfied from a Jouppi stream buffer."""
        if arrived:
            self.metrics.counter(ev.L1_HIT).inc()
        else:
            self.metrics.counter(ev.L1_MISS).inc()
        if self.trace:
            kind = ev.L1_HIT if arrived else ev.L1_MISS
            self.events.append({"cycle": self.cycle, "kind": kind,
                                "line": line_addr, "via": "stream"})

    def on_fill_arrival(self, cycle: int) -> None:
        """Fill/evict events stamp at data arrival, not at the access
        that drained the fill (fills arrive in ascending order)."""
        self.cycle = cycle

    # -- tag-store state changes (cache) -------------------------------------
    def on_fill(self, cache, set_index: int, line_addr: int,
                victim) -> None:
        self.metrics.counter(ev.CACHE_FILL).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.CACHE_FILL,
                                "cache": cache.name, "set": set_index,
                                "line": line_addr})
        if victim is not None:
            self.metrics.counter(ev.CACHE_EVICT).inc()
            heat = self.conflict_heat.setdefault(cache.name, {})
            heat[set_index] = heat.get(set_index, 0) + 1
            if self.trace:
                self.events.append({"cycle": self.cycle,
                                    "kind": ev.CACHE_EVICT,
                                    "cache": cache.name, "set": set_index,
                                    "line": victim.line_addr,
                                    "dirty": victim.dirty})

    def on_invalidate(self, cache, set_index: int, line_addr: int) -> None:
        self.metrics.counter(ev.CACHE_INVAL).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.CACHE_INVAL,
                                "cache": cache.name, "set": set_index,
                                "line": line_addr})

    # -- MSHR lifetime --------------------------------------------------------
    def _note_occupancy(self, occupancy: int) -> None:
        self.metrics.histogram("mshr_occupancy").record(occupancy)
        if occupancy > self._mshr_high:
            self._mshr_high = occupancy
            self.mshr_timeline.append((self.cycle, occupancy))

    def on_mshr_alloc(self, mshrs, entry) -> None:
        occupancy = mshrs.occupancy()
        self.metrics.counter(ev.MSHR_ALLOC).inc()
        self._note_occupancy(occupancy)
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_ALLOC,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "occupancy": occupancy})

    def on_mshr_merge(self, mshrs, entry) -> None:
        self.metrics.counter(ev.MSHR_MERGE).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_MERGE,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "merged": entry.merged})

    def on_mshr_fill(self, mshrs, entry) -> None:
        self.metrics.counter(ev.MSHR_FILL).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_FILL,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "occupancy": mshrs.occupancy()})

    def on_mshr_release(self, hierarchy, entry, squashed: bool) -> None:
        self.metrics.counter(ev.MSHR_RELEASE).inc()
        if squashed:
            self.metrics.counter("mshr.squashed").inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_RELEASE,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "squashed": squashed,
                                "occupancy": hierarchy.mshrs.occupancy()})

    # -- informing mechanism --------------------------------------------------
    def on_trap(self, engine, pc: int, addr: int, cycle: int,
                handler_len: int) -> None:
        self.cycle = cycle
        self.metrics.counter(ev.TRAP_FIRE).inc()
        self.metrics.histogram("handler_injected").record(handler_len)
        if self.trace:
            self.events.append({"cycle": cycle, "kind": ev.TRAP_FIRE,
                                "pc": pc, "addr": addr,
                                "handler_len": handler_len})

    def on_commit(self, seq: int, complete_cycle: int, cycle: int,
                  handler: bool, trap_seq) -> None:
        """A handler instruction opens or extends a handler run; an
        application instruction closes it."""
        self.cycle = cycle
        if handler:
            if self._handler_run is None:
                self._handler_run = [cycle, 1]
            else:
                self._handler_run[1] += 1
        elif self._handler_run is not None:
            self._close_handler_run(cycle)

    def _close_handler_run(self, cycle: int) -> None:
        run = self._handler_run
        if run is None:
            return
        self._handler_run = None
        start, committed = run
        self.metrics.counter(ev.TRAP_RETURN).inc()
        self.metrics.histogram("handler_committed").record(committed)
        if self.trace:
            self.events.append({"cycle": cycle, "kind": ev.TRAP_RETURN,
                                "start": start, "committed": committed})

    # -- graduation-slot classes ----------------------------------------------
    def on_slots(self, cycle: int, busy: int, lost: int,
                 cache_blame: bool) -> None:
        """One pipeline cycle's graduation-slot accounting (metrics only:
        a per-cycle trace event would dwarf everything else combined)."""
        metrics = self.metrics
        metrics.counter("slots.cycles").inc()
        if busy:
            metrics.counter("slots.busy").inc(busy)
        if lost:
            metrics.counter("slots.cache_stall" if cache_blame
                            else "slots.other_stall").inc(lost)

    # -- summaries -------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Event-kind counters (the reconciliation surface for tests)."""
        return self.metrics.counters()
