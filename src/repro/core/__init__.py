"""Informing memory operations — the paper's primary contribution.

This package defines the architectural surface of informing memory
operations independently of any particular core:

* :mod:`repro.core.mechanisms` — which mechanism is in effect
  (condition code vs. low-overhead trap, Section 2) and, for the trap on an
  out-of-order machine, whether it is handled like a mispredicted branch or
  like an exception (Section 3.2).
* :mod:`repro.core.handlers` — miss-handler code: the paper's generic
  chained handlers (1/10/100 instructions, single vs. unique per static
  reference) and callback handlers for the software clients in
  :mod:`repro.apps`.
* :mod:`repro.core.engine` — the MHAR/MHRR state machine the cores invoke
  on a primary data-cache miss.
* :mod:`repro.core.instrumentation` — stream rewriters that add the
  explicit per-reference instructions (a ``BLMISS`` check after each
  reference for the condition-code scheme, an ``MHAR_SET`` before each
  reference for unique trap handlers).
"""

from repro.core.mechanisms import InformingConfig, Mechanism, TrapStyle
from repro.core.handlers import (
    CallbackHandler,
    GenericHandler,
    HandlerSpec,
    SINGLE_HANDLER_BASE_PC,
)
from repro.core.engine import InformingEngine
from repro.core.instrumentation import (
    add_cc_check_rows,
    add_cc_checks,
    add_mhar_set_rows,
    add_mhar_sets,
)

__all__ = [
    "InformingConfig",
    "Mechanism",
    "TrapStyle",
    "HandlerSpec",
    "GenericHandler",
    "CallbackHandler",
    "SINGLE_HANDLER_BASE_PC",
    "InformingEngine",
    "add_cc_check_rows",
    "add_cc_checks",
    "add_mhar_set_rows",
    "add_mhar_sets",
]
