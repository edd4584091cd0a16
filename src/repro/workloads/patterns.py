"""Data-access patterns for the synthetic workloads.

Each pattern is a deterministic (seeded) address generator embodying one
memory-behaviour idiom; the SPEC92 models in :mod:`repro.workloads.spec92`
mix them to match each benchmark's role in the paper's evaluation.  The
crucial one for Figure 3 is :class:`ConflictPattern`: addresses spaced
exactly one small-direct-mapped-cache apart, which thrash the in-order
machine's 8KB direct-mapped L1 while co-existing happily in the
out-of-order machine's 32KB 2-way L1 — su2cor's pathology.
"""

from __future__ import annotations

import random
from typing import Sequence


class AccessPattern:
    """Interface: a stream of byte addresses.

    ``serial`` marks patterns whose next address depends on the previous
    access's *data* (pointer chasing); the workload generator then wires a
    true register dependence between consecutive loads.
    """

    serial = False

    def next_address(self) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Restart the pattern from its initial state."""
        raise NotImplementedError


class SequentialPattern(AccessPattern):
    """A streaming sweep: base, base+stride, ... wrapping at extent.

    With a 32-byte line and a 4-byte stride this misses once per eight
    references while the sweep exceeds the cache — the classic
    vector/stencil behaviour of swm256 and tomcatv.
    """

    def __init__(self, base: int, extent: int, stride: int = 4) -> None:
        if extent <= 0 or stride <= 0:
            raise ValueError("extent and stride must be positive")
        self.base = base
        self.extent = extent
        self.stride = stride
        self._offset = 0

    def next_address(self) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.extent
        return addr

    def reset(self) -> None:
        self._offset = 0


class RandomPattern(AccessPattern):
    """Uniform random word accesses within a working set.

    The miss rate against a cache of size C is roughly
    ``max(0, 1 - C/working_set)`` at the line granularity — the knob the
    integer-benchmark models use.
    """

    def __init__(self, base: int, working_set: int, seed: int = 0,
                 align: int = 4) -> None:
        if working_set <= 0:
            raise ValueError("working set must be positive")
        self.base = base
        self.working_set = working_set
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)

    def next_address(self) -> int:
        offset = self._rng.randrange(0, self.working_set, self.align)
        return self.base + offset

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class ConflictPattern(AccessPattern):
    """Round-robin over lines spaced exactly *spacing* bytes apart.

    With ``spacing`` equal to a direct-mapped cache's size, all ``count``
    lines collide in one set and every access misses; a larger or
    set-associative cache holds them all.  Advancing ``sweep`` words per
    full round makes the conflict march through the array like a real
    blocked loop nest.
    """

    def __init__(self, base: int, count: int, spacing: int = 8 * 1024,
                 sweep: int = 4) -> None:
        if count < 2:
            raise ValueError("a conflict needs at least two lines")
        self.base = base
        self.count = count
        self.spacing = spacing
        self.sweep = sweep
        self._turn = 0
        self._offset = 0

    def next_address(self) -> int:
        addr = self.base + self._turn * self.spacing + self._offset
        self._turn += 1
        if self._turn == self.count:
            self._turn = 0
            self._offset = (self._offset + self.sweep) % self.spacing
        return addr

    def reset(self) -> None:
        self._turn = 0
        self._offset = 0


class PointerChasePattern(AccessPattern):
    """A random cyclic permutation walked one node per access.

    ``serial`` is True: each address models a pointer loaded by the
    previous access, so the workload generator chains the loads through a
    register — no two chase loads can overlap.
    """

    serial = True

    def __init__(self, base: int, nodes: int, node_size: int = 32,
                 seed: int = 0) -> None:
        if nodes < 2:
            raise ValueError("need at least two nodes to chase")
        rng = random.Random(seed)
        order = list(range(nodes))
        rng.shuffle(order)
        self._next = [0] * nodes
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there
        self.base = base
        self.node_size = node_size
        self._start = order[0]
        self._current = self._start

    def next_address(self) -> int:
        addr = self.base + self._current * self.node_size
        self._current = self._next[self._current]
        return addr

    def reset(self) -> None:
        self._current = self._start


class MixedPattern(AccessPattern):
    """A weighted blend of patterns, chosen per access (seeded)."""

    def __init__(self, parts: Sequence, seed: int = 0) -> None:
        """*parts* is a sequence of (weight, pattern) pairs."""
        if not parts:
            raise ValueError("need at least one component pattern")
        self.parts = list(parts)
        self.seed = seed
        self._rng = random.Random(seed)
        self._total = sum(w for w, _ in self.parts)
        if self._total <= 0:
            raise ValueError("weights must sum to a positive value")
        # Serial blends are not supported: the chain dependence would be
        # ill-defined across components.
        if any(p.serial for _, p in self.parts):
            raise ValueError("serial patterns cannot be blended")

    def next_address(self) -> int:
        pick = self._rng.uniform(0, self._total)
        cumulative = 0.0
        for weight, pattern in self.parts:
            cumulative += weight
            if pick <= cumulative:
                return pattern.next_address()
        return self.parts[-1][1].next_address()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        for _, pattern in self.parts:
            pattern.reset()
