"""Software-controlled prefetching with informing operations (§4.1.2).

Two of the paper's three options are implemented:

* :class:`AdaptivePrefetcher` — prefetches live *in the miss handler*, so
  prefetch overhead is only paid when the code is actually missing.  The
  handler predicts a stride per static reference from its recent miss
  addresses and launches a few non-binding prefetches ahead of the
  stream.
* :func:`insert_static_prefetches` — the recompile-from-profile option: a
  stream rewriter that plants a prefetch ``distance`` lines ahead of every
  reference whose profiled miss count crosses a threshold (the profile
  typically comes from :class:`~repro.apps.monitoring.MissProfiler`).

The third option (multi-version code selected at run time) reduces to the
same two primitives and is not modelled separately.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set

from repro.core.handlers import CallbackHandler
from repro.core.mechanisms import InformingConfig, Mechanism
from repro.isa.instructions import DynInst, mhrr_jump, prefetch
from repro.isa.opclass import OpClass


class AdaptivePrefetcher:
    """Launch prefetches from the miss handler, adapting per reference.

    Args:
        degree: prefetches issued per handler invocation.
        line_size: cache line size (prefetch granularity).
        handler_pc: code address of the handler (for I-fetch modelling).
    """

    def __init__(self, degree: int = 2, line_size: int = 32,
                 handler_pc: int = 0x0040_3000) -> None:
        if degree < 1:
            raise ValueError("prefetch degree must be >= 1")
        self.degree = degree
        self.line_size = line_size
        self.handler_pc = handler_pc
        self.launched = 0
        self.invocations = 0
        self._last_miss: Dict[int, int] = {}   # pc -> last miss address
        self._stride: Dict[int, int] = {}      # pc -> predicted stride
        self._frontier: Dict[int, int] = {}    # pc -> furthest prefetched
        self.handler = CallbackHandler(self._on_miss)

    def _on_miss(self, ref: DynInst):
        self.invocations += 1
        pc, addr = ref.pc, ref.addr
        last = self._last_miss.get(pc)
        if last is not None and addr != last:
            self._stride[pc] = addr - last
        self._last_miss[pc] = addr
        stride = self._stride.get(pc, 0)
        if stride == 0:
            # No established stride: prefetch the next sequential lines.
            stride = self.line_size
        # Start past everything already prefetched for this reference, so
        # consecutive handler invocations extend coverage forward rather
        # than re-requesting in-flight lines — the handler's software
        # stream-prefetch pointer.  A miss far behind the frontier means
        # the stream restarted (a new sweep): drop the stale pointer.
        start = addr + stride
        frontier = self._frontier.get(pc)
        if frontier is not None and stride != 0:
            gap = (frontier - start) // stride
            if 0 < gap <= 4 * self.degree:
                start = frontier
        body = []
        for i in range(self.degree):
            body.append(prefetch(start + i * stride,
                                 pc=self.handler_pc + 4 * i))
        self._frontier[pc] = start + self.degree * stride
        self.launched += len(body)
        body.append(mhrr_jump(pc=self.handler_pc + 4 * self.degree))
        return body

    def informing_config(self) -> InformingConfig:
        return InformingConfig(mechanism=Mechanism.TRAP, handler=self.handler)


def insert_static_prefetches(
    stream: Iterable[DynInst],
    hot_pcs: Set[int],
    distance_lines: int = 4,
    line_size: int = 32,
) -> Iterator[DynInst]:
    """Plant a prefetch ahead of every reference whose pc is in *hot_pcs*.

    This is the "recompile for a subsequent run based on a detailed memory
    profile" option: the compiler knows which static references miss (from
    an informing-operations profile) and emits a prefetch ``distance_lines``
    ahead, paying one instruction per hot reference instead of one per
    reference.
    """
    if distance_lines < 1:
        raise ValueError("prefetch distance must be >= 1 line")
    ahead = distance_lines * line_size
    for inst in stream:
        if (inst.op in (OpClass.LOAD, OpClass.STORE)
                and not inst.handler_code and inst.pc in hot_pcs):
            yield prefetch(inst.addr + ahead, pc=inst.pc + 3)
        yield inst
