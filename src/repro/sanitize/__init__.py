"""repro.sanitize — runtime invariant sanitizer + chaos harness.

A "simulator sanitizer": an invariant catalog
(:data:`repro.sanitize.invariants.INVARIANTS`) checked live against the
cache tag stores, the MSHR file, both pipeline models, and the paper's
informing-mechanism semantics, plus a seeded fault injector
(:class:`repro.sanitize.chaos.ChaosInjector`) that proves the checks
catch real corruption.  Off by default; enable it with ``--sanitize``
on the harness CLI (``ExecOptions(sanitize=True)``, or ``run_bar(...,
sanitize=True)`` for one cell), on either backend.  The sanitizer is a
:class:`repro.probe.Probe`, so the disabled cost is one
``if probe is not None`` per hook site; enabled runs stay bit-exact with
golden results because every check is read-only.

The package re-exports only :class:`InvariantViolation`, which every
importer needs (the engine catches it; the checks and the injectors
raise it); a run without ``--sanitize`` loads neither of the others.
"""

from __future__ import annotations

from repro.sanitize.violation import InvariantViolation

__all__ = ["InvariantViolation"]
