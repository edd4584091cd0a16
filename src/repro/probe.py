"""The probe: one instrument slot and hook protocol for the simulator.

``MemoryHierarchy``, its ``Cache`` tag stores and its ``MSHRFile`` each
carry one ``_probe`` slot (``Cache.probe`` is the tag probe), None
unless an instrument is attached, so a hook site costs one
``if probe is not None`` when none is.  Both backends' cycle loops call
the pipeline hooks on the hierarchy's probe.  The sanitizer and the
observer are the instruments; no hook changes simulator state.
"""

from __future__ import annotations


class Probe:
    """The hooks, all no-ops here.  Arguments are the simulator's own
    objects (``entry`` an ``MSHR``, ``result`` an ``AccessResult``)."""

    #: Whether :meth:`attach_hierarchy` also wires the L1 instruction cache.
    watches_icache = False

    def attach(self, core):
        """Wire this probe into *core*'s memory hierarchy."""
        self.attach_hierarchy(core.hierarchy)
        return core

    def attach_hierarchy(self, hierarchy):
        """Wire this probe into the hierarchy's components; a component
        that already has a probe gets a :class:`FanOut` of both."""
        parts = [hierarchy, hierarchy.l1, hierarchy.l2, hierarchy.mshrs]
        if self.watches_icache and hierarchy.icache is not None:
            parts.append(hierarchy.icache)
        for part in parts:
            if part._probe is None:
                part._probe = self
            elif part._probe is not self:
                part._probe = FanOut(part._probe, self)
        return hierarchy

    # -- memory hierarchy ----------------------------------------------------
    def on_access(self, hierarchy, cycle: int) -> None:
        """A data access (demand or prefetch), before its outcome."""

    def on_l1_hit(self, line_addr: int, is_write: bool) -> None:
        """A demand access hit the L1."""

    def on_l1_miss(self, line_addr: int, level: int, start: int,
                   ready: int, mshr_id: int) -> None:
        """A demand access missed the L1 and allocated an MSHR."""

    def on_l1_merge(self, line_addr: int, mshr_id: int, ready: int) -> None:
        """A demand access merged into an in-flight MSHR."""

    def on_stream_buffer(self, line_addr: int, arrived: bool) -> None:
        """A demand access was served by a stream buffer."""

    def on_fill_arrival(self, cycle: int) -> None:
        """A pending fill's data arrives, before its L2/L1 installs."""

    def on_mshr_release(self, hierarchy, entry, squashed: bool) -> None:
        """An extended-lifetime MSHR was released, after the L1
        invalidation a squashed, filled entry performs."""

    # -- tag stores and the MSHR file ----------------------------------------
    def on_fill(self, cache, set_index: int, line_addr: int,
                victim) -> None:
        """A line was installed; *victim* is the ``EvictedLine`` or None."""

    def on_invalidate(self, cache, set_index: int, line_addr: int) -> None:
        """A resident line was invalidated."""

    def on_mshr_alloc(self, mshrs, entry) -> None:
        """A primary miss allocated *entry*."""

    def on_mshr_merge(self, mshrs, entry) -> None:
        """A secondary miss merged into *entry*."""

    def on_mshr_fill(self, mshrs, entry) -> None:
        """*entry*'s fill completed (retired unless pinned)."""

    # -- pipeline ------------------------------------------------------------
    def on_inform_signal(self, result) -> None:
        """A non-handler demand reference raised the informing signal."""

    def on_trap(self, engine, pc: int, addr: int, cycle: int,
                handler_len: int) -> None:
        """A miss handler was entered for the reference at *pc*, after
        the engine latched the MHRR."""

    def on_commit(self, seq: int, complete_cycle: int, cycle: int,
                  handler: bool, trap_seq) -> None:
        """One instruction committed (*handler*: handler or overhead
        code).  *trap_seq* is the seq of the informing trap that must
        fire before anything younger commits, or None."""

    def on_slots(self, cycle: int, busy: int, lost: int,
                 cache_blame: bool) -> None:
        """One cycle's graduation slots: *busy* used, *lost* wasted."""

    def on_warmup_reset(self) -> None:
        """The warm-up boundary: statistics were just reset."""

    def on_run_end(self, hierarchy) -> None:
        """The core run finished."""


class FanOut:
    """Two probes on one component, called in attach order."""

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def __getattr__(self, hook: str):
        first = getattr(self.first, hook)
        second = getattr(self.second, hook)

        def both(*args):
            first(*args)
            second(*args)

        setattr(self, hook, both)  # resolved once per hook
        return both
