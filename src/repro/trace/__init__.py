"""repro.trace — end-to-end span tracing for one logical request.

Follows the zero-cost-when-off pattern established by ``repro.sanitize``
and ``repro.obs``: tracing is enabled per-run by a sampling rate
(``--trace-sample``, ``ExecOptions.trace_sample``; default 0.0) and
every instrumentation site guards with ``if tracer is not None`` (or
the equivalent ambient check), so the disabled path costs one attribute
test.

Propagation:

* **HTTP** — the W3C ``traceparent`` header carries the context from
  ``repro.serve``'s client through the gateway (see
  :mod:`repro.trace.context`).
* **Process pool** — the exec engine hands each pool submission its job
  span's ``traceparent``; the worker traces the call under it and sends
  its finished spans back with the result.
* **In-process** — a thread-local *ambient* (tracer, current span)
  lets deep code (``run_bar``, obs stamping) attach spans without
  threading tracer arguments through every call.

Spans end up as ``span`` records in the run's journal (see
:class:`repro.exec.JobRunner`), next to the job records they explain.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Optional, Tuple

from .context import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from .span import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "parse_traceparent",
    "format_traceparent",
    "maybe_tracer",
    "set_ambient",
    "clear_ambient",
    "ambient",
    "job_trace_span",
]


def maybe_tracer(sample: float = 0.0,
                 parent: Optional[str] = None) -> Optional[Tracer]:
    """A Tracer if this run is sampled, else None.

    Head-based sampling: when *parent* (a ``traceparent`` header)
    carries a valid context, its sampled flag is the decision — sampled
    parents are continued, unsampled parents disable tracing regardless
    of the local rate.  Without a parent, a coin weighted by the
    sampling rate *sample* decides (0 or less never traces, 1 or more
    always does).
    """
    ctx = parse_traceparent(parent)
    if ctx is not None:
        if not ctx.sampled:
            return None
        return Tracer(ctx)
    if sample <= 0.0:
        return None
    if sample < 1.0 and random.random() >= sample:
        return None
    return Tracer()


# --------------------------------------------------------------------------
# Ambient (thread-local) trace state.

_AMBIENT = threading.local()


def set_ambient(tracer: Optional[Tracer], span: Optional[Span]) -> None:
    _AMBIENT.tracer = tracer
    _AMBIENT.span = span


def clear_ambient() -> None:
    _AMBIENT.tracer = None
    _AMBIENT.span = None


def ambient() -> Tuple[Optional[Tracer], Optional[Span]]:
    return getattr(_AMBIENT, "tracer", None), getattr(_AMBIENT, "span", None)


# --------------------------------------------------------------------------
# Job instrumentation.


class _JobSpanScope:
    """Context manager wrapping one job execution in a span under the
    ambient one (the engine's job span, or a pool worker's tracer);
    a no-op when the thread has no ambient tracer."""

    __slots__ = ("_tracer", "_parent", "_span")

    def __init__(self, name: str, **attrs: Any) -> None:
        self._tracer, self._parent = ambient()
        self._span = (self._tracer.start_span(name, parent=self._parent,
                                              **attrs)
                      if self._tracer is not None else None)

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            set_ambient(self._tracer, self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None:
            return
        set_ambient(self._tracer, self._parent)
        self._span.finish("error" if exc_type is not None else None)


def job_trace_span(name: str, **attrs: Any) -> _JobSpanScope:
    """Span around one simulator job; yields None when tracing is off."""
    return _JobSpanScope(name, **attrs)
