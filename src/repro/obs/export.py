"""Trace exporters: JSONL (lossless) and Chrome ``trace_event`` (visual).

JSONL is the canonical on-disk form — one event dict per line, loadable
with :func:`read_jsonl` into exactly the list an :class:`Observer`
accumulated, so the report layer treats live runs and re-loaded traces
identically.

The Chrome exporter maps events onto the ``trace_event`` JSON format
(the JSON-object flavour: ``{"traceEvents": [...]}``) that
``chrome://tracing`` and Perfetto load directly.  Cycles map to
microseconds one-to-one.  Point events become instants (``ph: "i"``);
events with a known span — an ``l1.miss`` between its ``start`` and
``ready`` cycles, a ``trap.return`` covering its handler's commit run —
become complete events (``ph: "X"`` with ``dur``) so miss latency and
handler occupancy are visible as bars on the timeline.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List

from repro.obs import events as ev

#: Chrome trace thread ids: one lane per event family keeps the timeline
#: readable (kind prefix -> (tid, lane name)).
_LANES = {
    "l1": (1, "L1 accesses"),
    "cache": (2, "tag stores"),
    "mshr": (3, "MSHRs"),
    "trap": (4, "informing"),
}
_DEFAULT_LANE = (5, "other")


# -- JSONL --------------------------------------------------------------------

def write_jsonl(events: Iterable[Dict[str, Any]], path: str) -> str:
    """Write *events* one JSON object per line; return *path*."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into the in-memory event-list form.

    A run killed mid-write leaves a truncated (or, over NFS, garbled)
    final line; by default such lines, and any record that is not an
    event (an object with an integer ``cycle`` and a string ``kind``),
    are skipped so the surviving prefix stays loadable.  ``strict=True``
    raises ``ValueError`` on the first of them instead, for callers that
    would rather know.
    """
    events = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                event = None
            if (isinstance(event, dict) and type(event.get("cycle")) is int
                    and isinstance(event.get("kind"), str)):
                events.append(event)
            elif strict:
                raise ValueError(
                    f"{path}:{number}: corrupt JSONL line (not an event "
                    f"with an integer cycle and a string kind)")
    return events


# -- Chrome trace_event -------------------------------------------------------

def _lane(kind: str):
    return _LANES.get(kind.split(".", 1)[0], _DEFAULT_LANE)


def chrome_trace(events: Iterable[Dict[str, Any]],
                 process_name: str = "repro-sim") -> Dict[str, Any]:
    """Convert an event list to a Chrome ``trace_event`` JSON object."""
    trace_events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for tid, name in sorted(set(_LANES.values()) | {_DEFAULT_LANE}):
        trace_events.append({"name": "thread_name", "ph": "M", "pid": 0,
                             "tid": tid, "args": {"name": name}})
    for event in events:
        kind = event["kind"]
        cycle = event["cycle"]
        tid, _ = _lane(kind)
        args = {k: v for k, v in event.items()
                if k not in ("cycle", "kind")}
        record: Dict[str, Any] = {"name": kind, "pid": 0, "tid": tid,
                                  "args": args}
        if kind == ev.L1_MISS and "start" in event:
            record["ph"] = "X"
            record["ts"] = event["start"]
            record["dur"] = max(event["ready"] - event["start"], 1)
        elif kind == ev.TRAP_RETURN and "start" in event:
            record["ph"] = "X"
            record["ts"] = event["start"]
            record["dur"] = max(cycle - event["start"], 1)
        else:
            record["ph"] = "i"
            record["ts"] = cycle
            record["s"] = "t"  # instant scoped to its thread lane
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_chrome_trace(events: Iterable[Dict[str, Any]], path: str,
                       process_name: str = "repro-sim") -> str:
    """Write the Chrome ``trace_event`` JSON for *events*; return *path*."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(events, process_name), fh)
    return path


# -- OpenMetrics / Prometheus -------------------------------------------------

def _om_name(name: str, prefix: str) -> str:
    """Sanitize a registry name into an OpenMetrics metric name."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return prefix + safe


def _om_payload(metrics) -> Dict[str, Any]:
    """Accept a Registry or its ``to_dict()`` payload."""
    return metrics if isinstance(metrics, dict) else metrics.to_dict()


def to_openmetrics(metrics, prefix: str = "repro_") -> str:
    """Render a metrics registry as OpenMetrics (Prometheus) text.

    Counters become ``<name>_total``; histograms keep their power-of-two
    bucketing as cumulative ``le`` edges (bucket with lower bound ``lo``
    holds integer values up to ``2*lo - 1``), plus ``_sum``/``_count``
    and ``_min``/``_max`` gauges so the exposition is lossless (see
    :func:`parse_openmetrics`).  Dots and other non-identifier
    characters in registry names become underscores.  Ends with the
    mandatory ``# EOF`` terminator.
    """
    payload = _om_payload(metrics)
    lines: List[str] = []
    for name, value in sorted(payload.get("counters", {}).items()):
        metric = _om_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {value}")
    for name, hist in sorted(payload.get("histograms", {}).items()):
        metric = _om_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for lo_str, count in sorted(hist.get("buckets", {}).items(),
                                    key=lambda kv: int(kv[0])):
            lo = int(lo_str)
            le = 0 if lo == 0 else 2 * lo - 1
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f"{metric}_sum {hist.get('total', 0)}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
        for bound in ("min", "max"):
            if hist.get(bound) is not None:
                gauge = f"{metric}_{bound}"
                lines.append(f"# TYPE {gauge} gauge")
                lines.append(f"{gauge} {hist[bound]}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(metrics, path: str, prefix: str = "repro_") -> str:
    """Write the OpenMetrics exposition for *metrics*; return *path*."""
    with open(path, "w") as fh:
        fh.write(to_openmetrics(metrics, prefix))
    return path


def parse_openmetrics(text: str, prefix: str = "repro_") -> Dict[str, Any]:
    """Parse :func:`to_openmetrics` output back into registry-dict form.

    Returns ``{"counters": {...}, "histograms": {...}}`` with the
    *sanitized* metric names (the exposition does not keep the original
    dots); histogram dicts regain ``buckets``/``count``/``total``/
    ``mean``/``min``/``max``, so a round trip through the exporter
    preserves every number the registry held.
    """
    counters: Dict[str, int] = {}
    hists: Dict[str, Dict[str, Any]] = {}
    minmax: Dict[str, Dict[str, int]] = {}

    def _strip(name: str) -> str:
        return name[len(prefix):] if name.startswith(prefix) else name

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value_str = line.partition(" ")
        value = float(value_str) if "." in value_str else int(value_str)
        if "{" in name:
            metric, _, label = name.partition("{")
            if not metric.endswith("_bucket"):
                continue
            base = _strip(metric[:-len("_bucket")])
            le = label.split('"')[1]
            hist = hists.setdefault(base, {"buckets": {}, "count": 0,
                                           "total": 0})
            if le == "+Inf":
                continue  # count comes from _count
            lo = 0 if le == "0" else (int(le) + 1) // 2
            hist["buckets"][str(lo)] = value  # cumulative; fixed up below
        elif name.endswith("_sum"):
            hists.setdefault(_strip(name[:-4]),
                             {"buckets": {}, "count": 0})["total"] = value
        elif name.endswith("_count"):
            hists.setdefault(_strip(name[:-6]),
                             {"buckets": {}, "total": 0})["count"] = value
        elif name.endswith("_min") or name.endswith("_max"):
            base, bound = _strip(name[:-4]), name[-3:]
            minmax.setdefault(base, {})[bound] = value
        elif name.endswith("_total"):
            counters[_strip(name[:-6])] = value
    for base, hist in hists.items():
        cumulative = sorted(((int(lo), n) for lo, n in
                             hist["buckets"].items()))
        previous = 0
        buckets = {}
        for lo, running in cumulative:
            buckets[str(lo)] = running - previous
            previous = running
        hist["buckets"] = buckets
        count = hist.get("count", 0)
        hist["mean"] = round(hist.get("total", 0) / count, 3) if count else 0.0
        hist["min"] = minmax.get(base, {}).get("min")
        hist["max"] = minmax.get(base, {}).get("max")
    return {"counters": counters, "histograms": hists}


# -- per-run artifacts --------------------------------------------------------

def write_run_artifacts(observer, directory: str, stem: str
                        ) -> Dict[str, str]:
    """Write one run's trace + metrics under *directory*.

    Produces ``<stem>.events.jsonl`` (when the observer captured events)
    and ``<stem>.metrics.json``; returns ``{"events": path, "metrics":
    path}`` for whatever was written.
    """
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}
    if observer.trace:
        paths["events"] = write_jsonl(
            observer.events, os.path.join(directory,
                                          f"{stem}.events.jsonl"))
    payload = {
        "stem": stem,
        "events": len(observer.events),
        "metrics": observer.metrics.to_dict(),
        "conflict_heat": {
            cache: {str(s): n for s, n in sorted(heat.items())}
            for cache, heat in sorted(observer.conflict_heat.items())},
        "mshr_timeline": [list(point) for point in observer.mshr_timeline],
    }
    metrics_path = os.path.join(directory, f"{stem}.metrics.json")
    with open(metrics_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    paths["metrics"] = metrics_path
    return paths
