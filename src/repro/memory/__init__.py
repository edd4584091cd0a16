"""Memory-hierarchy substrate.

Implements the two-level, non-blocking cache hierarchy of Table 1:
set-associative LRU caches, a Miss Status Handling Register (MSHR) file with
the *extended lifetime* semantics of Section 3.3 (entries pinned until the
owning instruction graduates or is squashed; a squash invalidates the
speculatively filled L1 line), bank conflicts, fill occupancy, and a
bandwidth-limited main memory (one access per N cycles).
"""

from repro.memory.config import CacheConfig, HierarchyConfig
from repro.memory.cache import Cache, EvictedLine, REPLACEMENT_POLICIES
from repro.memory.mshr import MSHR, MSHRFile
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.replacement import (
    DEFAULT_REPLACEMENT_SEED,
    ReplacementPolicy,
    available_policies,
    create_policy,
    derive_seed,
    get_policy_class,
)
from repro.memory.stats import MemStats
from repro.memory.victim_cache import VictimCache, VictimCachedL1

__all__ = [
    "CacheConfig",
    "HierarchyConfig",
    "Cache",
    "EvictedLine",
    "REPLACEMENT_POLICIES",
    "DEFAULT_REPLACEMENT_SEED",
    "ReplacementPolicy",
    "available_policies",
    "create_policy",
    "derive_seed",
    "get_policy_class",
    "MSHR",
    "MSHRFile",
    "AccessResult",
    "MemoryHierarchy",
    "MemStats",
    "VictimCache",
    "VictimCachedL1",
]
