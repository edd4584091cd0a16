"""Performance monitoring with informing memory operations (§4.1.1).

Two tools:

* :class:`MissCounter` — the minimal client: a single one-instruction
  handler that increments a counter.  Total misses, at almost no cost.
* :class:`MissProfiler` — the paper's per-reference profiling tool
  ([HMMS95]): one shared handler of roughly ten instructions that hashes
  the MHRR return address into a table and increments that entry, yielding
  *per static reference* miss counts.  Reference execution counts come
  from instrumentation-free stream counting (the equivalent of the basic-
  block counts a binary rewriter provides), giving per-reference miss
  rates.

Both expose ``handler``, a :class:`CallbackHandler` that counts each miss
as it injects the modelled handler body, and ``informing_config()`` to
attach it to a core, so the measured counts and the modelled handler
cost stay in lockstep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.handlers import CallbackHandler, GenericHandler
from repro.core.mechanisms import InformingConfig, Mechanism
from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass


class MissCounter:
    """Count primary-cache misses with a 1-instruction handler."""

    def __init__(self, track_addresses: bool = False) -> None:
        self.misses = 0
        self.by_pc: Counter = Counter()
        #: miss counts by data address (for page/conflict analysis);
        #: opt-in because it grows with the footprint.
        self.track_addresses = track_addresses
        self.by_addr: Counter = Counter()
        self.handler = CallbackHandler(self._on_miss,
                                       cost_model=GenericHandler(1))

    def _on_miss(self, ref: DynInst) -> None:
        self.misses += 1
        self.by_pc[ref.pc] += 1
        if self.track_addresses:
            self.by_addr[ref.addr] += 1
        return None  # use the cost model's body

    def informing_config(self) -> InformingConfig:
        return InformingConfig(mechanism=Mechanism.TRAP, handler=self.handler)


@dataclass
class MissProfile:
    """Per-static-reference profiling results."""

    misses: Dict[int, int] = field(default_factory=dict)
    references: Dict[int, int] = field(default_factory=dict)
    hash_collisions: int = 0
    table_size: int = 0

    def miss_rate(self, pc: int) -> float:
        refs = self.references.get(pc, 0)
        if refs == 0:
            return 0.0
        return self.misses.get(pc, 0) / refs

    def hottest(self, count: int = 10) -> List[Tuple[int, int, float]]:
        """Top static references by miss count: (pc, misses, miss_rate)."""
        ranked = sorted(self.misses.items(), key=lambda kv: -kv[1])
        return [(pc, n, self.miss_rate(pc)) for pc, n in ranked[:count]]

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())


class MissProfiler:
    """The [HMMS95] per-reference miss profiler.

    The modelled handler is the paper's: ~10 instructions that hash the
    return address (available in the MHRR) and bump a table entry, with a
    couple of extra instructions when the hash probe collides.  The Python
    side keeps the real table so results are exact.
    """

    def __init__(self, table_size: int = 1024) -> None:
        if table_size & (table_size - 1) or table_size < 2:
            raise ValueError("table size must be a power of two >= 2")
        self.table_size = table_size
        self.profile = MissProfile(table_size=table_size)
        self._table: Dict[int, int] = {}  # slot -> pc currently occupying it
        self.handler = CallbackHandler(self._on_miss)
        self._hit_cost = GenericHandler(10)
        self._probe_cost = GenericHandler(13)

    def _on_miss(self, ref: DynInst):
        profile = self.profile
        profile.misses[ref.pc] = profile.misses.get(ref.pc, 0) + 1
        slot = (ref.pc >> 2) & (self.table_size - 1)
        occupant = self._table.get(slot)
        if occupant is None or occupant == ref.pc:
            self._table[slot] = ref.pc
            return self._hit_cost.instructions(ref)
        # Collision: the handler chains to an overflow entry (extra work).
        profile.hash_collisions += 1
        return self._probe_cost.instructions(ref)

    def informing_config(self) -> InformingConfig:
        return InformingConfig(mechanism=Mechanism.TRAP, handler=self.handler)

    def counting_stream(self, stream: Iterable[DynInst]
                        ) -> Iterator[DynInst]:
        """Pass-through that tallies reference counts per static pc.

        Equivalent to the basic-block execution counts a binary rewriter
        gathers; costs nothing in simulated time.
        """
        refs = self.profile.references
        for inst in stream:
            if inst.op in (OpClass.LOAD, OpClass.STORE) and not inst.handler_code:
                refs[inst.pc] = refs.get(inst.pc, 0) + 1
            yield inst
