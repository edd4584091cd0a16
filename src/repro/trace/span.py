"""Spans and the in-process tracer.

A :class:`Span` is one timed operation inside a trace; a
:class:`Tracer` owns every span started in this process for one trace.
Spans use ``time.time()`` (not the monotonic clock) so spans recorded
in different processes land on a shared axis and a single request's
tree lines up across the gateway, the exec engine, and pool workers.
Their owners keep them as ``span`` records in a run journal
(:meth:`Tracer.records`).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from .context import TraceContext, new_span_id, new_trace_id

__all__ = ["Span", "Tracer"]


class Span:
    """One timed operation.  Mutable until :meth:`finish`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attrs",
        "status",
        "pid",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}
        self.status = "ok"
        self.pid = os.getpid()

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, sampled=True)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def finish(self, status: Optional[str] = None) -> None:
        if self.end is None:
            self.end = time.time()
        if status is not None:
            self.status = status

    def to_record(self) -> Dict[str, Any]:
        """The body of this span's ``span`` run record."""
        record: Dict[str, Any] = {
            "rec": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "pid": self.pid,
        }
        if self.parent_id:
            record["parent_id"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _SpanScope:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_span",)

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.finish("error" if exc_type is not None else None)


class Tracer:
    """Collects spans for one trace inside one process.

    Thread-safe: serve shards and engine threads may start spans
    concurrently.
    """

    def __init__(self, context: Optional[TraceContext] = None) -> None:
        if context is None:
            self.trace_id = new_trace_id()
            # A fresh trace: our root spans have no parent.
            self.remote_parent_id: Optional[str] = None
        else:
            self.trace_id = context.trace_id
            # The propagated span id is the *parent* for our root spans.
            self.remote_parent_id = context.span_id
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Start a span.  ``parent`` wins over ``parent_id`` over the
        remote parent this tracer was created from."""
        if parent is not None:
            pid = parent.span_id
        elif parent_id is not None:
            pid = parent_id
        else:
            pid = self.remote_parent_id
        span = Span(self.trace_id, new_span_id(), pid, name, time.time(), attrs or None)
        with self._lock:
            self._spans.append(span)
        return span

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> _SpanScope:
        """``with tracer.span("cache.probe") as s: ...`` — finishes on
        exit, status="error" if the body raised."""
        return _SpanScope(self.start_span(name, parent=parent, parent_id=parent_id, **attrs))

    def traceparent(self, span: Optional[Span] = None) -> str:
        from .context import format_traceparent

        span_id = span.span_id if span is not None else (self.remote_parent_id or new_span_id())
        return format_traceparent(TraceContext(self.trace_id, span_id, sampled=True))

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def take_finished(self, ts: float) -> List[Dict[str, Any]]:
        """The spans finished so far as ``span`` run records stamped
        *ts*.  They leave this tracer, so a later take or
        :meth:`records` returns each span once."""
        with self._lock:
            done = [span for span in self._spans if span.end is not None]
            self._spans = [span for span in self._spans if span.end is None]
        return [dict(span.to_record(), ts=ts) for span in done]

    def records(self, ts: float) -> List[Dict[str, Any]]:
        """Every span as a ``span`` run record stamped *ts*.  Spans a
        crash or rejection path left open close first, as
        ``unfinished``."""
        spans = self.spans()
        for span in spans:
            if span.end is None:
                span.finish("unfinished")
        return [dict(span.to_record(), ts=ts) for span in spans]
