"""repro.vec — the batched/vectorized simulation backend.

The repository carries two backends behind the same ``SimJob``/engine
interface:

* ``interp`` — the original object-per-instruction interpreters in
  :mod:`repro.inorder` and :mod:`repro.ooo`.  Always available; the
  default.
* ``vec`` — this package.  A cell replays its benchmark's stream as
  plain-int row tuples (op codes, addresses, register ids — see
  :mod:`repro.vec.decode`), drawn from the same per-process stream
  cache interp reads (:func:`repro.harness.runner.shared_stream`), so
  every grid cell of a benchmark shares one generated stream on either
  backend.  Event-driven flat replay kernels (:mod:`repro.vec.inorder`,
  :mod:`repro.vec.ooo`) advance it and reuse the interp backend's
  memory hierarchy objects, so the simulated statistics are
  **digit-exact** with ``interp``.  Like the rest of the package, it is
  pure Python.

Because results are bit-identical, the backend is *not* part of a
job's identity: :meth:`repro.exec.SimJob.cache_key` never includes it
(proven by ``tests/test_vec_parity.py``), and either backend may
populate or hit the shared result cache.

Selection: the ``--backend {interp,vec}`` harness flag, the
``backend`` field of a serve job spec, or the ``REPRO_BACKEND``
environment variable (which forked pool workers inherit, the same
route ``--sanitize`` uses).
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised backend names, in preference-documentation order.
BACKENDS = ("interp", "vec")

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"


class BackendError(ValueError):
    """An unknown backend name reached the dispatch layer."""


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend to use: *explicit* if given, else ``REPRO_BACKEND``,
    else ``interp``.

    Raises:
        BackendError: when the explicit or environment value is not one
            of :data:`BACKENDS`.
    """
    value = explicit
    source = "backend"
    if value is None:
        value = os.environ.get(BACKEND_ENV) or None
        source = BACKEND_ENV
    if value is None:
        return "interp"
    if value not in BACKENDS:
        raise BackendError(
            f"{source}: unknown backend {value!r}; expected one of "
            f"{list(BACKENDS)}")
    return value


#: Replacement policies the flat kernels express exactly: the dict-order
#: family, whose whole semantics lives in the hierarchy objects the vec
#: kernels share with interp.  Stateful policies (plru/rrip/brrip) keep
#: recency metadata the kernels' inline L1-hit path would bypass, so
#: those runs fall back to interp (same results; the telemetry's
#: ``backend`` field records the downgrade).
VEC_POLICIES = frozenset(["lru", "fifo", "random"])


def vec_supports(bar, policy: str = "lru") -> bool:
    """Can the vec backend replay this bar digit-exactly?

    The flat replay kernels cover everything the figure grids use: no
    handler, or :class:`repro.core.handlers.GenericHandler` bodies
    (single or unique, any length), under either informing mechanism.
    Python-callback handlers (:class:`CallbackHandler`) run arbitrary
    user code per miss and fall back to the interp backend — as do
    stateful replacement policies (see :data:`VEC_POLICIES`).
    """
    from repro.core.handlers import GenericHandler

    if policy not in VEC_POLICIES:
        return False
    informing = bar.informing
    if informing is None or informing.handler is None:
        return True
    return type(informing.handler) is GenericHandler


def run_bar_vec(benchmark: str, machine_key: str, bar,
                instructions: int, warmup: int, seed: int = 0,
                policy: str = "lru"):
    """Run one bar cell on the vec backend (see repro.vec.runner)."""
    from repro.vec.runner import run_bar_vec as _impl
    return _impl(benchmark, machine_key, bar, instructions, warmup,
                 seed=seed, policy=policy)


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "VEC_POLICIES",
    "BackendError",
    "resolve_backend",
    "run_bar_vec",
    "vec_supports",
]
