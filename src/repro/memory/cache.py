"""A set-associative cache with pluggable replacement (true LRU default).

The cache tracks tags, dirty bits and replacement ordering only — data
values live in the functional layer (:mod:`repro.isa.interp`) or nowhere at
all for the statistical workloads.  All methods take byte addresses; *line
addresses* are derived internally.

Recency is tracked through dict insertion order (Python dicts are ordered):
each set maps line address -> dirty flag, a recency refresh is a delete and
re-insert (O(1)), and the replacement victim is the set's first key.  This
replaces the historical per-way LRU stamps and their ``min()`` scan in the
victim chooser; because the stamp clock was strictly monotonic, "minimum
stamp" and "first in insertion/refresh order" pick identical victims, so
the rewrite is cycle-exact.

Which events refresh the order — and whether the victim comes from the
front or a seeded random index — is decided by the replacement policy,
looked up by name in :mod:`repro.memory.replacement`.  The dict-order
family (lru/fifo/random) compiles down to the same inline code this module
has always run; stateful policies (plru/rrip/brrip) additionally receive
on-hit/on-fill/evict/on-invalidate callbacks through ``self._stateful``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import DefaultDict, Dict, Optional

from repro.memory.config import CacheConfig
from repro.memory.replacement import (
    DEFAULT_REPLACEMENT_SEED,
    available_policies,
    create_policy,
)


@dataclass(frozen=True)
class EvictedLine:
    """A victim returned by :meth:`Cache.fill`."""

    line_addr: int
    dirty: bool


def _replacement_policies() -> tuple:
    """Registered policy names (module attribute kept for compatibility)."""
    return available_policies()


#: Supported replacement policies (registry order: the paper's true LRU
#: and the historical fifo/random ablation entries first, then the
#: tree-PLRU and RRIP-family additions).
REPLACEMENT_POLICIES = _replacement_policies()


class Cache:
    """Tag array with pluggable replacement (LRU by default).

    The probe/fill split matters for non-blocking behaviour: a miss does not
    immediately install the line; the hierarchy installs it (``fill``) when
    the data returns, which is what lets the MSHR squash path cancel a
    speculative install (Section 3.3 of the paper).

    Per-set state is one dict of line address -> dirty bool, created on
    first touch (``_sets`` maps set index to it, so a run pays only for
    the sets it uses) and ordered oldest-first in replacement order:

    * **lru** — :meth:`probe` hits and :meth:`fill` merges both move the
      line to the back of its set.
    * **fifo** — only :meth:`fill` refreshes the order (a merged write miss
      counts as a re-fill, matching the historical stamp semantics).
    * **random** — order is pure insertion order (never refreshed) and the
      victim is drawn from it with a seeded LCG, reproducing the historical
      ``list(cache_set)[lcg % ways]`` choice without building the list.

    Stateful policies (**plru**, **rrip**, **brrip**) keep their own per-set
    metadata next to the dict and choose victims through it; the dict then
    carries pure insertion order and the dirty bits.
    """

    def __init__(self, config: CacheConfig, name: str = "cache",
                 policy: str = "lru",
                 seed: int = DEFAULT_REPLACEMENT_SEED) -> None:
        pol = create_policy(policy, config, seed)
        self.config = config
        self.name = name
        self.policy = policy
        self.policy_impl = pol
        self._sets: DefaultDict[int, Dict[int, bool]] = defaultdict(dict)
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_size.bit_length() - 1
        self._assoc = config.assoc
        # Flag view of the dict-order family; the inline hot paths in this
        # module and in MemoryHierarchy/vec key off these exactly as they
        # did before the registry existed.
        self._is_lru = pol.dict_order and pol.refresh_on_hit
        self._is_random = pol.dict_order and pol.random_victim
        # Stateful policies keep the dict in pure insertion order (their
        # metadata owns recency); random never reorders either.
        self._refill_reorders = pol.dict_order and pol.refresh_on_fill
        # Stateful policies get touch callbacks; None keeps the hook cost
        # to one identity test on the dict-order family.
        self._stateful = None if pol.dict_order else pol
        # Cheap deterministic LCG for the random policy (no random import
        # on the hot path).
        self._rand_state = seed or 1
        # Optional runtime invariant checker (repro.sanitize); None keeps
        # the hook cost to one identity test per fill/invalidate.
        self._san = None
        # Optional observer (repro.obs), same pattern and same cost.
        self._obs = None

    # -- address helpers ---------------------------------------------------
    def line_addr(self, addr: int) -> int:
        """Line-granularity address of byte address *addr*."""
        return addr >> self._line_shift

    def _set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    # -- operations ----------------------------------------------------------
    def probe(self, addr: int, is_write: bool = False, update_lru: bool = True
              ) -> bool:
        """Return True on a tag hit; updates LRU (and dirty on writes)."""
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        dirty = cache_set.get(line)
        if dirty is None:
            return False
        if update_lru and self._is_lru:
            del cache_set[line]
            cache_set[line] = dirty or is_write
        else:
            if is_write:
                cache_set[line] = True
            if update_lru and self._stateful is not None:
                self._stateful.on_hit(line & self._set_mask, line)
        return True

    def fill(self, addr: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install the line containing *addr*; return the victim, if any.

        Filling a line that is already resident refreshes its LRU stamp and
        ORs in the dirty bit (a merged write miss), evicting nothing.
        """
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        existing = cache_set.get(line)
        if existing is not None:
            if self._refill_reorders:
                del cache_set[line]
                cache_set[line] = existing or dirty
            else:
                # Random replacement never reorders: victim choice indexes
                # pure insertion order, exactly as the stamp era did.
                # Stateful policies likewise keep pure insertion order and
                # track the touch in their own metadata.
                cache_set[line] = existing or dirty
                if self._stateful is not None:
                    self._stateful.on_hit(line & self._set_mask, line)
            return None
        victim: Optional[EvictedLine] = None
        stateful = self._stateful
        if len(cache_set) >= self._assoc:
            if stateful is not None:
                victim_line = stateful.evict(line & self._set_mask, cache_set)
            else:
                victim_line = self._choose_victim(cache_set)
            victim = EvictedLine(victim_line, cache_set[victim_line])
            del cache_set[victim_line]
        cache_set[line] = dirty
        if stateful is not None:
            stateful.on_fill(line & self._set_mask, line)
        if self._san is not None:
            self._san.on_fill(self, line & self._set_mask)
        if self._obs is not None:
            self._obs.on_cache_fill(self, line & self._set_mask, line, victim)
        return victim

    def _choose_victim(self, cache_set: Dict[int, bool]) -> int:
        if self._is_random:
            self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
            index = self._rand_state % len(cache_set)
            return next(islice(cache_set, index, None))
        # LRU and FIFO both evict the front of the order; they differ in
        # whether probe() refreshes it (LRU) or only fill() does (FIFO).
        return next(iter(cache_set))

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing *addr*; return True if it was resident."""
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            del cache_set[line]
            if self._stateful is not None:
                self._stateful.on_invalidate(line & self._set_mask, line)
            if self._san is not None:
                self._san.on_invalidate(self, line & self._set_mask)
            if self._obs is not None:
                self._obs.on_cache_invalidate(self, line & self._set_mask,
                                              line)
            return True
        return False

    def contains(self, addr: int) -> bool:
        """Tag check with no LRU side effect."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def is_dirty(self, addr: int) -> bool:
        """True if the line containing *addr* is resident and dirty."""
        line = addr >> self._line_shift
        return bool(self._sets[line & self._set_mask].get(line))

    def flush(self) -> None:
        """Empty the cache (used between experiment phases)."""
        self._sets.clear()
        if self._stateful is not None:
            self._stateful.reset()

    def resident_lines(self) -> int:
        """Number of lines currently resident (for occupancy assertions)."""
        return sum(len(s) for s in self._sets.values())
