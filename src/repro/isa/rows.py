"""Instruction rows: the generated form of a dynamic instruction.

The workload generator emits one plain-int tuple per instruction
(:meth:`repro.workloads.synthetic.SyntheticWorkload.rows`), and the vec
replay kernels read them: one list index per field instead of one
attribute load, and issue dispatch switches on a precomputed class.
:func:`from_row` reads a row back as the :class:`DynInst` the interp
cores fetch; :func:`to_row`, its inverse, serves hand-built traces.

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

from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass

# Dense op codes the replay kernels and row rewriters switch on.
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

#: Op class, fu code, overhead flag and dispatch class per op code
#: (op_code is declaration order).
OPS = tuple(OpClass)
FU_BY_OP = [op.fu_code for op in OpClass]
OVH_BY_OP = [1 if op in (OpClass.MHAR_SET, OpClass.BLMISS,
                         OpClass.PREFETCH) else 0 for op in OpClass]
CLS_BY_OP = [CLS_MEM if op in (OpClass.LOAD, OpClass.STORE,
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
            "a row holds at most two source registers per "
            f"instruction, got {n_srcs} at pc {inst.pc:#x}")
    addr = inst.addr
    taken = inst.taken
    pc = inst.pc
    hand = 1 if inst.handler_code else 0
    return (code, FU_BY_OP[code], -1 if dest is None else dest,
            srcs[0] if n_srcs else -1, srcs[1] if n_srcs > 1 else -1,
            -1 if addr is None else addr, -1 if taken is None else int(taken),
            pc, pc >> 5, 1 if inst.informing else 0, hand,
            hand or OVH_BY_OP[code], CLS_BY_OP[code])


_new = object.__new__


def from_row(row: tuple) -> DynInst:
    """The :class:`DynInst` *row* encodes: ``from_row(to_row(i))`` has
    every field of *i*."""
    code, _, dest, src1, src2, addr, taken, pc, _, inf, hand, _, _ = row
    # Rows hold valid instructions: skip the costlier checked class call.
    inst = _new(DynInst)
    inst.op = OPS[code]
    inst.dest = None if dest < 0 else dest
    inst.srcs = () if src1 < 0 else (src1,) if src2 < 0 else (src1, src2)
    inst.addr = None if addr < 0 else addr
    inst.taken = None if taken < 0 else taken == 1
    inst.pc = pc
    inst.informing = inf == 1
    inst.handler_code = hand == 1
    return inst
