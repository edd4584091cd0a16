"""Span export formats, over ``span`` records read from a run journal.

* Chrome ``trace_event`` JSON — load in ``chrome://tracing`` / Perfetto.
* OTLP-compatible JSON — the ``resourceSpans`` shape OpenTelemetry
  collectors ingest, so the spans can leave the repo without new deps.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["spans_to_chrome", "spans_to_otlp"]


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


def _otlp_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def spans_to_otlp(spans: List[Dict[str, Any]], service_name: str = "repro") -> Dict[str, Any]:
    """OTLP/JSON ``resourceSpans`` payload (nanosecond timestamps)."""
    otlp_spans: List[Dict[str, Any]] = []
    for span in spans:
        start = float(span.get("start", 0.0))
        end = float(span.get("end", start))
        attrs = [
            {"key": key, "value": _otlp_value(value)}
            for key, value in sorted((span.get("attrs") or {}).items())
        ]
        attrs.append({"key": "process.pid", "value": _otlp_value(span.get("pid", 0))})
        record: Dict[str, Any] = {
            "traceId": span.get("trace_id", ""),
            "spanId": span.get("span_id", ""),
            "name": span.get("name", "?"),
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(int(start * 1e9)),
            "endTimeUnixNano": str(int(end * 1e9)),
            "attributes": attrs,
            "status": {"code": 2 if span.get("status") == "error" else 1},
        }
        if span.get("parent_id"):
            record["parentSpanId"] = span["parent_id"]
        otlp_spans.append(record)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": [
                        {"key": "service.name", "value": {"stringValue": service_name}}
                    ]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.trace", "version": "1"},
                        "spans": otlp_spans,
                    }
                ],
            }
        ]
    }
