"""Architectural register namespace.

Registers are plain small integers.  Indices 0..31 are the integer file and
32..63 the floating-point file.  Index 0 is the hardwired zero register and
is never a true dependence source or destination.  The informing-operation
machinery reserves an integer register for the *single* generic miss
handler so that successive invocations are data dependent on one another,
exactly as the paper's pessimistic model assumes.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Hardwired zero; reads are always ready, writes are discarded.
REG_ZERO = 0

#: Integer register the single generic miss handler chains through.
HANDLER_REG_BASE = 26
