"""Instruction-set substrate for the informing-memory-operations simulators.

The simulators in :mod:`repro.inorder`, :mod:`repro.ooo` and :mod:`repro.vec`
are trace driven: they consume streams of
:class:`~repro.isa.instructions.DynInst` records (or their row form,
:mod:`repro.isa.rows`).  This package defines the op classes, the
dynamic-instruction record with its builders (:func:`alu`, :func:`load`,
:func:`branch`, ...), the row encoding and the register namespace.
"""

from repro.isa.opclass import OpClass, FUKind, FU_FOR_OP, is_mem_op
from repro.isa.instructions import (
    DynInst,
    alu,
    branch,
    fp_op,
    load,
    mhar_set,
    mhrr_jump,
    nop,
    prefetch,
    store,
)
from repro.isa.registers import NUM_INT_REGS, NUM_FP_REGS, NUM_REGS, REG_ZERO

__all__ = [
    "OpClass",
    "FUKind",
    "FU_FOR_OP",
    "is_mem_op",
    "DynInst",
    "alu",
    "branch",
    "fp_op",
    "load",
    "mhar_set",
    "mhrr_jump",
    "nop",
    "prefetch",
    "store",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "NUM_REGS",
    "REG_ZERO",
]
