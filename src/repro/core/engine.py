"""The informing engine: MHAR/MHRR semantics shared by both cores.

The cores consult one :class:`InformingEngine` per run.  On a primary
data-cache miss by an informing reference the core asks the engine for the
handler body to inject; the engine implements the MHAR-disable convention
(``MHAR == 0`` → no trap), dispatches single vs unique handlers, and keeps
the invocation statistics the experiments report.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.handlers import SINGLE_HANDLER_BASE_PC
from repro.core.mechanisms import InformingConfig, Mechanism, return_pc
from repro.isa.instructions import DynInst


class InformingEngine:
    """Run-time informing-operation state for one *config*.

    The cores report each handler entry to an attached instrument
    themselves (``Probe.on_trap``, after :meth:`on_miss` returns), so the
    engine carries no hook.
    """

    def __init__(self, config: InformingConfig) -> None:
        self.config = config
        self.invocations = 0
        self.injected_instructions = 0
        self.enabled = True  # cleared models writing 0 into the MHAR
        # The architectural register pair of Section 2.2.  MHAR == 0 is the
        # hardware disable convention; an active configuration points it at
        # the (single-handler) dispatch target.  The MHRR latches the
        # return PC at each handler entry.
        self.mhar = SINGLE_HANDLER_BASE_PC if config.active else 0
        self.mhrr = 0

    # -- run-time control (what user code would do by writing the MHAR) ----
    def disable(self) -> None:
        """Model ``MHAR <- 0``: misses stop trapping."""
        self.enabled = False
        self.mhar = 0

    def enable(self) -> None:
        self.enabled = True
        if self.config.active:
            self.mhar = SINGLE_HANDLER_BASE_PC

    # -- core-facing API ----------------------------------------------------
    def wants(self, inst: DynInst) -> bool:
        """Should a miss by *inst* invoke the informing mechanism?

        Handler code itself never re-traps (the paper's handlers run with
        trapping implicitly disabled to avoid recursion), and prefetches
        are non-binding hints with no hit/miss architectural outcome.
        """
        if not self.enabled or not self.config.active:
            return False
        return inst.informing and not inst.handler_code

    def on_miss(self, inst: DynInst) -> Optional[List[DynInst]]:
        """Return the handler body to inject for a miss by *inst*.

        Returns None when the mechanism is inactive for this reference.
        """
        if not self.wants(inst):
            return None
        self.invocations += 1
        self.mhrr = return_pc(inst.pc)
        body = self.config.handler.instructions(inst)
        self.injected_instructions += len(body)
        return body

    @property
    def mechanism(self) -> Mechanism:
        return self.config.mechanism
