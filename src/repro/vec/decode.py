"""Miss-handler frames for the flat replay kernels.

The vec kernels replay generated rows (:mod:`repro.isa.rows`) from
:func:`repro.harness.runner.shared_stream` with ``rows=True``, so a vec
cell builds no ``DynInst``; :class:`FlatHandlers` builds the handler
frame each informing miss pushes, as rows too.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.opclass import FU_BRANCH, FU_INT
from repro.isa.rows import CLS_PLAIN, OP_IALU, OP_MHRR_JUMP


class FlatHandlers:
    """Replay-side port of GenericHandler bodies + engine dispatch.

    Produces handler frames as flat column tuples instead of DynInst
    lists, reproducing :class:`repro.core.handlers.GenericHandler`
    exactly: register use, chained/unique first-instruction sources,
    packed unique-handler base allocation in first-miss order, and the
    terminating MHRR jump.  Single handlers (and each unique handler
    after its first invocation) reuse one immutable template, so a
    trap costs a frame push instead of ``n+1`` object constructions.
    """

    def __init__(self, handler) -> None:
        from repro.core.handlers import (
            SINGLE_HANDLER_BASE_PC,
            UNIQUE_HANDLER_REGION,
        )

        self.n = handler.n_instructions
        self.unique = handler.unique
        self.chained = handler.chained
        self.reg = handler.reg
        self._single_base = SINGLE_HANDLER_BASE_PC
        self._unique_region = UNIQUE_HANDLER_REGION
        # Shared with the GenericHandler so base allocation order (and any
        # bases a previous run of the same handler object allocated) stays
        # identical to what handler.instructions() would produce.
        self._bases: Dict[int, int] = handler._bases
        self._frames: Dict[int, List[tuple]] = {}
        self.body_length = self.n + 1  # engine counts the MHRR jump

    def _build(self, base: int) -> List[tuple]:
        n = self.n
        reg = self.reg
        rows = []
        for i in range(n):
            if i == 0:
                src1 = reg if not self.unique else -1
            else:
                src1 = reg if self.chained else -1
            pc = base + 4 * i
            # Body IALUs are informing=False, handler code (ovh=1).
            rows.append((OP_IALU, FU_INT, reg, src1, -1, -1, -1,
                         pc, pc >> 5, 0, 1, 1, CLS_PLAIN))
        pc = base + 4 * n
        # mhrr_jump() leaves the DynInst default informing=True.
        rows.append((OP_MHRR_JUMP, FU_BRANCH, -1, -1, -1, -1, -1,
                     pc, pc >> 5, 1, 1, 1, CLS_PLAIN))
        return rows

    def body(self, ref_pc: int) -> List[tuple]:
        """The flat handler frame for a miss by the reference at
        *ref_pc* (allocating its unique base on first use)."""
        if not self.unique:
            base = self._single_base
        else:
            base = self._bases.get(ref_pc)
            if base is None:
                base = (self._unique_region
                        + len(self._bases) * 4 * (self.n + 1))
                self._bases[ref_pc] = base
        frame = self._frames.get(base)
        if frame is None:
            frame = self._build(base)
            self._frames[base] = frame
        return frame
