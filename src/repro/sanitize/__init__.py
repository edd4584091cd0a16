"""repro.sanitize — runtime invariant sanitizer + chaos harness.

A "simulator sanitizer": an invariant catalog (:data:`INVARIANTS`)
checked live against the cache tag stores, the MSHR file, both pipeline
models, and the paper's informing-mechanism semantics, plus a seeded
fault injector (:class:`ChaosInjector`) that proves the checks catch
real corruption.  Off by default; enable it with ``--sanitize`` on the
harness CLI (``ExecOptions(sanitize=True)``, or ``run_bar(...,
sanitize=True)`` for one cell).  Disabled cost is one
``if self._san is not None`` per hook point; enabled runs stay
bit-exact with golden results because every check is read-only.
"""

from __future__ import annotations

from repro.sanitize.chaos import CAUGHT_BY, FAULT_CLASSES, ChaosInjector
from repro.sanitize.invariants import DEFAULT_EVERY, INVARIANTS, Sanitizer
from repro.sanitize.violation import InvariantViolation

__all__ = [
    "CAUGHT_BY",
    "ChaosInjector",
    "DEFAULT_EVERY",
    "FAULT_CLASSES",
    "INVARIANTS",
    "InvariantViolation",
    "Sanitizer",
]

