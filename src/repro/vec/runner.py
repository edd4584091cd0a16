"""The vec backend's replay step.

:func:`repro.harness.runner.run_bar` builds the core, attaches any
instrument and reads the cell's stream as rows (:mod:`repro.isa.rows`);
:func:`replay` runs the core's flat kernel over them, digit-exact with
``core.run``.
"""

from __future__ import annotations

from repro.ooo import OutOfOrderCore
from repro.vec.inorder import run_inorder_vec
from repro.vec.ooo import run_ooo_vec


def replay(core, stream, instructions: int, warmup: int):
    """Replay *stream*'s rows through *core*; return its stats."""
    kernel = (run_ooo_vec if isinstance(core, OutOfOrderCore)
              else run_inorder_vec)
    return kernel(core, stream, max_app_insts=instructions + warmup,
                  warmup_insts=warmup)
