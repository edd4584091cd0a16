"""repro.vec — the batched/vectorized simulation backend.

The repository carries two backends behind the same ``SimJob``/engine
interface:

* ``interp`` — the original object-per-instruction interpreters in
  :mod:`repro.inorder` and :mod:`repro.ooo`.  Always available; the
  harness CLI's default.
* ``vec`` — this package.  A cell replays its benchmark's stream as
  the plain-int row tuples the workload generator emits (op codes,
  addresses, register ids — see :mod:`repro.isa.rows`), drawn from
  the same per-process stream cache interp reads
  (:func:`repro.harness.runner.shared_stream` with ``rows=True``), so
  every grid cell of a benchmark shares one generated stream and no
  ``DynInst`` is built.  Event-driven flat replay kernels (:mod:`repro.vec.inorder`,
  :mod:`repro.vec.ooo`) advance it and reuse the interp backend's
  memory hierarchy objects — replacement policies included — so the
  simulated statistics are **digit-exact** with ``interp``.  The
  sanitizer and the observer attach to either backend through the same
  probe (:mod:`repro.probe`).  Like the rest of the package, it is pure
  Python.

Because results are bit-identical, the backend is *not* part of a
job's identity: :meth:`repro.exec.SimJob.cache_key` never includes it
(proven by ``tests/test_vec_parity.py``), and either backend may
populate or hit the shared result cache.

Selection: the ``--backend {interp,vec}`` harness flag, or
``ExecOptions(backend=...)``.  A run without one resolves
:func:`resolve_backend` once as it opens — ``REPRO_BACKEND``, then
``interp`` — and hands the result to every cell, pool workers included,
as a call argument.  The serve gateway resolves once at boot with
``vec`` as the fallback and passes the result to every served run.  A
serve job spec's ``backend`` field is validated but never changes what
the server runs.
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised backend names, in preference-documentation order.
BACKENDS = ("interp", "vec")

#: Environment variable consulted when no explicit backend is given
#: (the serve operator's switch and perfbench's vec selector).
BACKEND_ENV = "REPRO_BACKEND"


class BackendError(ValueError):
    """An unknown backend name reached the dispatch layer."""


def resolve_backend(explicit: Optional[str] = None,
                    default: str = "interp") -> str:
    """The backend to use: *explicit* if given, else ``REPRO_BACKEND``,
    else *default* (``interp`` for harness runs; the gateway passes
    ``vec``).

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
        return default
    if value not in BACKENDS:
        raise BackendError(
            f"{source}: unknown backend {value!r}; expected one of "
            f"{list(BACKENDS)}")
    return value


def vec_supports(bar) -> bool:
    """Can the vec backend replay this bar digit-exactly?

    The flat replay kernels cover everything the figure grids use: no
    handler, or :class:`repro.core.handlers.GenericHandler` bodies
    (single or unique, any length), under either informing mechanism,
    with any registered replacement policy and any instrument attached.
    Python-callback handlers
    (:class:`CallbackHandler`) run arbitrary user code per miss and fall
    back to the interp backend.
    """
    from repro.core.handlers import GenericHandler

    informing = bar.informing
    if informing is None or informing.handler is None:
        return True
    return type(informing.handler) is GenericHandler


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "BackendError",
    "resolve_backend",
    "vec_supports",
]
