"""Miss Status Handling Registers for the lockup-free L1 cache.

Normal lifetime (Farkas & Jouppi [FJ94], as the paper summarises): an MSHR is
allocated on a primary miss, merges secondary misses to the same line, and is
freed when the data returns and the line fills.

*Extended* lifetime (Section 3.3): an MSHR is freed only after the owning
memory instruction either graduates or is squashed.  On a squash after the
fill already happened, the MSHR's address is used to invalidate the L1 line
so that a squashed speculative informing load cannot silently install cache
state (the data normally remains in L2 — an accidental prefetch).  The
paper reports that eight MSHRs remained sufficient even with the extension;
the :class:`MSHRFile` tracks high-water occupancy so our benchmarks can
verify the same claim.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class MSHR:
    """One in-flight miss: line address plus bookkeeping."""

    __slots__ = ("mshr_id", "line_addr", "data_ready", "filled", "merged",
                 "pinned", "is_write", "informed")

    def __init__(self, mshr_id: int, line_addr: int, data_ready: int,
                 is_write: bool, pinned: bool) -> None:
        self.mshr_id = mshr_id
        self.line_addr = line_addr
        self.data_ready = data_ready
        self.filled = False          # line installed in L1 yet?
        self.merged = 0              # secondary misses merged into this entry
        self.pinned = pinned         # extended lifetime: wait for release()
        self.is_write = is_write
        # Has a miss handler run for this line fetch?  Informing operations
        # fire once per line fetch; if the triggering reference is squashed
        # before its trap is taken, a replayed/merged reference re-arms.
        self.informed = False


class MSHRFile:
    """A fixed-size file of MSHRs with optional extended lifetime.

    Args:
        count: number of registers (Table 1: 8).
        extended_lifetime: if True, entries persist until
            :meth:`release` is called (graduate/squash); otherwise they
            retire automatically once their fill completes.

    :class:`~repro.memory.hierarchy.MemoryHierarchy` makes the allocate,
    merge and fill transitions on ``_entries``/``_by_line`` in its own
    access and fill frames, with the same probe hooks; the methods here
    drive a file on its own.
    """

    def __init__(self, count: int, extended_lifetime: bool = False) -> None:
        if count < 1:
            raise ValueError("MSHR file needs at least one register")
        self.count = count
        self.extended_lifetime = extended_lifetime
        self._entries: Dict[int, MSHR] = {}
        self._by_line: Dict[int, MSHR] = {}
        self._next_id = 0
        self.high_water = 0
        self.allocation_failures = 0
        # Attached instrument (repro.probe); None keeps the hook cost to
        # one identity test per lifetime transition.
        self._probe = None

    # -- queries -----------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[MSHR]:
        """Return the in-flight entry for *line_addr*, if any."""
        return self._by_line.get(line_addr)

    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.count

    def get(self, mshr_id: int) -> Optional[MSHR]:
        return self._entries.get(mshr_id)

    def entries(self) -> List[MSHR]:
        return list(self._entries.values())

    # -- lifetime ------------------------------------------------------------
    def allocate(self, line_addr: int, data_ready: int, is_write: bool
                 ) -> Optional[MSHR]:
        """Allocate an entry for a primary miss; None if the file is full."""
        if line_addr in self._by_line:
            raise ValueError(
                f"line {line_addr:#x} already has an MSHR; merge instead")
        if self.full:
            self.allocation_failures += 1
            return None
        entry = MSHR(self._next_id, line_addr, data_ready, is_write,
                     pinned=self.extended_lifetime)
        self._next_id += 1
        self._entries[entry.mshr_id] = entry
        self._by_line[line_addr] = entry
        self.high_water = max(self.high_water, len(self._entries))
        if self._probe is not None:
            self._probe.on_mshr_alloc(self, entry)
        return entry

    def merge(self, line_addr: int, is_write: bool) -> MSHR:
        """Record a secondary miss on an outstanding line."""
        entry = self._by_line.get(line_addr)
        if entry is None:
            raise KeyError(f"no outstanding miss for line {line_addr:#x}")
        entry.merged += 1
        entry.is_write = entry.is_write or is_write
        if self._probe is not None:
            self._probe.on_mshr_merge(self, entry)
        return entry

    def mark_filled(self, mshr_id: int) -> None:
        """The fill for this entry completed; retire unless pinned.

        A filled entry stops being a merge target (the line is resident, or
        was and got evicted — either way a new reference must re-probe), so
        it leaves the line map even while pinned.
        """
        entry = self._entries.get(mshr_id)
        if entry is None:
            return
        entry.filled = True
        if self._by_line.get(entry.line_addr) is entry:
            del self._by_line[entry.line_addr]
        if not entry.pinned:
            del self._entries[entry.mshr_id]
        if self._probe is not None:
            self._probe.on_mshr_fill(self, entry)

    def release(self, mshr_id: int, squashed: bool) -> Optional[int]:
        """Extended-lifetime release at graduate (squashed=False) or squash.

        Returns the line address the caller must invalidate in L1 when a
        squashed entry had already filled, else None.
        """
        entry = self._entries.get(mshr_id)
        if entry is None:
            return None
        if not entry.pinned:
            raise ValueError("release() applies only to pinned entries")
        invalidate = entry.line_addr if (squashed and entry.filled) else None
        # If the data has not arrived yet (squash before fill), dropping the
        # entry also stops the eventual return from installing the line or
        # forwarding to a stale destination — the standard squash behaviour
        # the paper builds on.
        del self._entries[entry.mshr_id]
        if self._by_line.get(entry.line_addr) is entry:
            del self._by_line[entry.line_addr]
        return invalidate

    def is_informed(self, mshr_id: int) -> Optional[bool]:
        """Informed status, or None if the entry has retired."""
        entry = self._entries.get(mshr_id)
        return entry.informed if entry is not None else None

    def flush(self) -> None:
        """Drop all entries (experiment-boundary reset)."""
        self._entries.clear()
        self._by_line.clear()
