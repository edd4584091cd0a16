"""Span export over ``span`` records read from a run journal: Chrome
``trace_event`` JSON, to load in ``chrome://tracing`` / Perfetto."""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["spans_to_chrome"]


def spans_to_chrome(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace_event JSON: one complete ("X") event per span."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        start = float(span.get("start", 0.0))
        end = float(span.get("end", start))
        args: Dict[str, Any] = {
            "trace_id": span.get("trace_id"),
            "span_id": span.get("span_id"),
            "status": span.get("status", "ok"),
        }
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        args.update(span.get("attrs") or {})
        events.append(
            {
                "name": span.get("name", "?"),
                "ph": "X",
                "ts": start * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "pid": span.get("pid", 0),
                "tid": span.get("pid", 0),
                "cat": "repro.trace",
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
