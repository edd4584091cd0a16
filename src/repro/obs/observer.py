"""The :class:`Observer`: cycle-stamped event capture + live metrics.

Mirrors the :class:`repro.sanitize.invariants.Sanitizer` attachment
pattern: the observer is wired into a core (or a bare hierarchy) by
setting the ``_obs`` slot on each component, and every hook site in the
simulator costs exactly one ``if self._obs is not None`` identity test
when tracing is off.  All hooks are strictly read-only with respect to
simulator state — they never touch recency order, MSHR bookkeeping or
pipeline structures — so a traced run is bit-exact with an untraced one
(the ``obs`` mode of ``tests/test_golden_parity.py`` replays the golden
``figure2 --quick`` cells with ``trace_events`` set to prove it).

The observer keeps three things:

* ``events`` — the ordered list of cycle-stamped event dicts (see
  :mod:`repro.obs.events` for the taxonomy);
* ``metrics`` — a :class:`repro.obs.metrics.Registry` of counters and
  histograms (miss latency, handler length, MSHR occupancy);
* dedicated structures a flat registry does not fit: per-set conflict
  heat per cache, and the MSHR occupancy high-water timeline.

``reset()`` is called at the cores' warm-up boundary (alongside the
statistics reset), so a run's trace covers exactly the measured region
and event counts reconcile with the reported aggregates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev


class Observer:
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

    # -- attachment ----------------------------------------------------------
    def attach(self, core) -> Any:
        """Wire this observer into *core*, its engine and its hierarchy."""
        self.attach_hierarchy(core.hierarchy)
        core.engine._obs = self
        return core

    def attach_hierarchy(self, hierarchy) -> Any:
        """Wire this observer into a memory hierarchy's components."""
        hierarchy._obs = self
        hierarchy.l1._obs = self
        hierarchy.l2._obs = self
        hierarchy.mshrs._obs = self
        return hierarchy

    def reset(self) -> None:
        """Warm-up boundary: drop everything observed so far."""
        self.events.clear()
        from repro.obs.metrics import Registry
        self.metrics = Registry()
        self.conflict_heat.clear()
        self.mshr_timeline.clear()
        self._mshr_high = 0
        self._handler_run = None

    def finish(self) -> None:
        """End of run: close any handler run still open at the last commit."""
        self._close_handler_run(self.cycle)

    # -- access outcomes (hierarchy) -----------------------------------------
    def on_access(self, cycle: int) -> None:
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

    # -- tag-store state changes (cache) -------------------------------------
    def on_cache_fill(self, cache, set_index: int, line_addr: int,
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

    def on_cache_invalidate(self, cache, set_index: int,
                            line_addr: int) -> None:
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

    def on_mshr_alloc(self, entry, occupancy: int) -> None:
        self.metrics.counter(ev.MSHR_ALLOC).inc()
        self._note_occupancy(occupancy)
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_ALLOC,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "occupancy": occupancy})

    def on_mshr_merge(self, entry) -> None:
        self.metrics.counter(ev.MSHR_MERGE).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_MERGE,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "merged": entry.merged})

    def on_mshr_fill(self, entry, occupancy: int) -> None:
        self.metrics.counter(ev.MSHR_FILL).inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_FILL,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "occupancy": occupancy})

    def on_mshr_release(self, entry, squashed: bool,
                        occupancy: int) -> None:
        self.metrics.counter(ev.MSHR_RELEASE).inc()
        if squashed:
            self.metrics.counter("mshr.squashed").inc()
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.MSHR_RELEASE,
                                "mshr": entry.mshr_id,
                                "line": entry.line_addr,
                                "squashed": squashed,
                                "occupancy": occupancy})

    # -- informing mechanism --------------------------------------------------
    def on_trap_fire(self, inst, handler_len: int) -> None:
        self.metrics.counter(ev.TRAP_FIRE).inc()
        self.metrics.histogram("handler_injected").record(handler_len)
        if self.trace:
            self.events.append({"cycle": self.cycle, "kind": ev.TRAP_FIRE,
                                "pc": inst.pc, "addr": inst.addr,
                                "handler_len": handler_len})

    def on_handler_commit(self, cycle: int) -> None:
        """One handler-body instruction committed/graduated."""
        self.cycle = cycle
        if self._handler_run is None:
            self._handler_run = [cycle, 1]
        else:
            self._handler_run[1] += 1

    def on_app_commit(self, cycle: int) -> None:
        """One application instruction committed — closes a handler run."""
        self.cycle = cycle
        if self._handler_run is not None:
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
