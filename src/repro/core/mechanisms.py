"""Informing-mechanism selection (Sections 2 and 3.2)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.handlers import HandlerSpec

#: Fixed instruction width of the modelled ISA (a MIPS-like RISC).
INSTRUCTION_BYTES = 4


def return_pc(pc: int) -> int:
    """The MHRR value for an informing reference at *pc*.

    Section 2.2: on a miss trap the MHRR latches the address of the
    instruction *following* the informing memory operation, so the
    handler's terminating jump resumes execution after the reference.
    """
    return pc + INSTRUCTION_BYTES


class Mechanism(enum.Enum):
    """How software observes the hit/miss outcome of a reference."""

    NONE = "none"
    #: Cache-outcome condition code: an explicit BLMISS instruction after
    #: each reference of interest tests user-visible hit/miss state
    #: (Section 2.1).  Costs one instruction per reference even on hits.
    CONDITION_CODE = "condition_code"
    #: Low-overhead cache-miss trap via MHAR/MHRR (Section 2.2).  Zero
    #: instruction overhead on hits with a single handler; one MHAR_SET per
    #: reference when every static reference wants its own handler.
    TRAP = "trap"


class TrapStyle(enum.Enum):
    """Out-of-order trap handling (Section 3.2)."""

    #: Treat the implicit branch-and-link like a mispredicted branch:
    #: redirect as soon as the miss is detected.  Costs shadow rename
    #: state per in-flight informing op.
    BRANCH_LIKE = "branch_like"
    #: Treat it like an exception: wait until the informing op reaches the
    #: head of the reorder buffer, then flush.  Cheap hardware, slower
    #: handler invocation (the paper measured 7-9% on compress).
    EXCEPTION_LIKE = "exception_like"


@dataclass(frozen=True)
class InformingConfig:
    """Complete informing-operation configuration for one simulation.

    Attributes:
        mechanism: the architectural mechanism (or NONE for the baseline).
        trap_style: branch-like vs exception-like handling on the
            out-of-order core; ignored by the in-order core, which uses
            its replay-trap mechanism (Section 3.1).
        handler: the miss-handler code generator; None with TRAP models
            ``MHAR == 0`` (trapping disabled — identical to NONE timing
            but the hardware is present).
        unique_handlers: give every static reference its own handler.
            With TRAP this inserts an MHAR_SET before every informing
            reference; with CONDITION_CODE the check instruction already
            encodes a per-reference target, so no extra instruction is
            added beyond the check itself.
    """

    mechanism: Mechanism = Mechanism.NONE
    trap_style: TrapStyle = TrapStyle.BRANCH_LIKE
    handler: Optional[HandlerSpec] = None
    unique_handlers: bool = False

    def __post_init__(self) -> None:
        if self.mechanism is Mechanism.NONE and self.handler is not None:
            raise ValueError("a handler requires an informing mechanism")
        if self.mechanism is Mechanism.CONDITION_CODE and self.handler is None:
            raise ValueError("the condition-code scheme requires a handler")

    @property
    def active(self) -> bool:
        """True when misses will actually invoke a handler."""
        return self.mechanism is not Mechanism.NONE and self.handler is not None
