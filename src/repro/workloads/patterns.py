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
from typing import List, Sequence


class AccessPattern:
    """Interface: a stream of byte addresses.

    ``serial`` marks patterns whose next address depends on the previous
    access's *data* (pointer chasing); the workload generator then wires a
    true register dependence between consecutive loads.

    Each pattern draws in :meth:`take`, a batch at a time: the workload
    generator asks for one template pass's addresses in one call.
    """

    serial = False

    def take(self, count: int) -> List[int]:
        """The next *count* addresses, in order."""
        raise NotImplementedError

    def next_address(self) -> int:
        """The next address: a :meth:`take` of one."""
        return self.take(1)[0]

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

    def take(self, count: int) -> List[int]:
        base, stride, extent = self.base, self.stride, self.extent
        offset = self._offset
        out = []
        for _ in range(count):
            out.append(base + offset)
            offset = (offset + stride) % extent
        self._offset = offset
        return out

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
        if align <= 0:
            raise ValueError("align must be positive")
        self.base = base
        self.working_set = working_set
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)
        # Aligned words in the working set.
        self._words = (working_set + align - 1) // align

    def take(self, count: int) -> List[int]:
        # Draw for draw what randrange(0, working_set, align) returns:
        # align times a getrandbits(k) word, redrawn while out of range.
        getrandbits = self._rng.getrandbits
        words = self._words
        bits = words.bit_length()
        base, align = self.base, self.align
        out = []
        for _ in range(count):
            word = getrandbits(bits)
            while word >= words:
                word = getrandbits(bits)
            out.append(base + align * word)
        return out

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

    def take(self, count: int) -> List[int]:
        base, spacing, lines, sweep = (self.base, self.spacing, self.count,
                                       self.sweep)
        turn, offset = self._turn, self._offset
        out = []
        for _ in range(count):
            out.append(base + turn * spacing + offset)
            turn += 1
            if turn == lines:
                turn = 0
                offset = (offset + sweep) % spacing
        self._turn, self._offset = turn, offset
        return out

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

    def take(self, count: int) -> List[int]:
        base, node_size, successor = self.base, self.node_size, self._next
        current = self._current
        out = []
        for _ in range(count):
            out.append(base + current * node_size)
            current = successor[current]
        self._current = current
        return out

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
        # Running weight sums, added in part order as the pick scan adds
        # them.
        self._bounds = []
        cumulative = 0.0
        for weight, _ in self.parts:
            cumulative += weight
            self._bounds.append(cumulative)
        # Serial blends are not supported: the chain dependence would be
        # ill-defined across components.
        if any(p.serial for _, p in self.parts):
            raise ValueError("serial patterns cannot be blended")

    def take(self, count: int) -> List[int]:
        # Pick a part per access (uniform(0, total), digit for digit; a
        # pick past every bound falls to the last part), then draw each
        # part's addresses in one batch: the parts are independent, so
        # the interleaved sequence is the same.
        rng_random = self._rng.random
        total = self._total
        bounds = self._bounds
        picks = []
        for _ in range(count):
            pick = total * rng_random()
            for index, bound in enumerate(bounds):
                if pick <= bound:
                    break
            picks.append(index)
        drawn = [iter(pattern.take(picks.count(index)))
                 for index, (_, pattern) in enumerate(self.parts)]
        return [next(drawn[index]) for index in picks]

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        for _, pattern in self.parts:
            pattern.reset()
