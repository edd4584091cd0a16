"""Row layout of the flat replay kernels, and the function that builds a row.

The vec kernels (:mod:`repro.vec.inorder`, :mod:`repro.vec.ooo`) replay
one plain-int tuple per instruction instead of a ``DynInst``: one list
index per fetched instruction instead of one attribute load per field,
and issue dispatch switches on a precomputed class.  A cell's rows are
one more :class:`repro.pipeline.stream.SharedStream` in the one stream
cache, :func:`repro.harness.runner.shared_stream` called with
``each=to_row``: :func:`to_row` mapped over the variant's ``DynInst``
stream.  Both backends therefore read one generated, instrumented
stream per benchmark, grown 64 instructions at a time as the cells
fetch, under one lock rule and one eviction rule.

Row slot order (everything is an int; ``-1`` encodes "absent"):
``op`` (dense :attr:`OpClass.op_code`), ``fu`` (dense FU code),
``dest``, ``src1``, ``src2``, ``addr``, ``taken`` (-1/0/1), ``pc``,
``line`` (``pc >> 5``, the fetch-line key both cores use), ``inf``
(informing flag), ``hand`` (handler-code flag), ``ovh`` (overhead
classification: handler code, ``MHAR_SET``, ``BLMISS`` or
``PREFETCH`` — the exact commit-classification predicate of both
cores, precomputed), ``cls`` (issue dispatch class: 0 plain ALU-like,
1 memory, 2 branch, 3 blmiss — collapses the op-identity chains the
interp issue loops evaluate per instruction into one precomputed
switch value).
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instructions import DynInst
from repro.isa.opclass import FU_BRANCH, FU_INT, OpClass

# Dense op codes the replay kernels switch on.
OP_IALU = OpClass.IALU.op_code
OP_LOAD = OpClass.LOAD.op_code
OP_STORE = OpClass.STORE.op_code
OP_PREFETCH = OpClass.PREFETCH.op_code
OP_MHRR_JUMP = OpClass.MHRR_JUMP.op_code

# Issue dispatch classes (the ``cls`` slot, row slot 12).
CLS_PLAIN = 0
CLS_MEM = 1
CLS_BRANCH = 2
CLS_BLMISS = 3

#: Row slot names, in slot order.
COLUMNS = ("op", "fu", "dest", "src1", "src2", "addr", "taken", "pc",
           "line", "inf", "hand", "ovh", "cls")

#: fu code, overhead flag and dispatch class per op code (op_code is
#: declaration order).
_FU_BY_OP = [op.fu_code for op in OpClass]
_OVH_BY_OP = [1 if op in (OpClass.MHAR_SET, OpClass.BLMISS,
                          OpClass.PREFETCH) else 0 for op in OpClass]
_CLS_BY_OP = [CLS_MEM if op in (OpClass.LOAD, OpClass.STORE,
                                OpClass.PREFETCH)
              else CLS_BRANCH if op is OpClass.BRANCH
              else CLS_BLMISS if op is OpClass.BLMISS
              else CLS_PLAIN for op in OpClass]


def to_row(inst: DynInst) -> tuple:
    """*inst* as a row tuple in :data:`COLUMNS` slot order."""
    code = inst.op.op_code
    dest = inst.dest
    srcs = inst.srcs
    n_srcs = len(srcs)
    if n_srcs > 2:
        raise ValueError(
            "vec decode supports at most two source registers per "
            f"instruction, got {n_srcs} at pc {inst.pc:#x}")
    addr = inst.addr
    taken = inst.taken
    pc = inst.pc
    hand = 1 if inst.handler_code else 0
    return (code, _FU_BY_OP[code], -1 if dest is None else dest,
            srcs[0] if n_srcs else -1, srcs[1] if n_srcs > 1 else -1,
            -1 if addr is None else addr, -1 if taken is None else int(taken),
            pc, pc >> 5, 1 if inst.informing else 0, hand,
            hand or _OVH_BY_OP[code], _CLS_BY_OP[code])


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
