"""``harness spans``: where did this request's wall time go?

Reconstructs the span tree a traced run kept (:mod:`repro.trace`) — the
``span`` records of its journal — and
answers the latency questions the run's aggregate walls cannot:
what the *critical path* through the request was (the chain of spans
that determined end-to-end latency, with each hop's exclusive
contribution), where each span name's *self time* went once its
children are subtracted, and which individual spans were anomalous
against their peers (> p99 of same-named spans).  The per-cell walls
the journal's ``job_finish`` records carry are cross-checked against
the matching ``job`` spans — a disagreement means the tree is lying or
the clock is.

The input is a run id, run directory or journal path, as for
``harness explain``::

    python -m repro.harness spans results/runs/<run_id>/journal.jsonl
    python -m repro.harness spans <run_id> [--manifest-dir DIR]

Records are read through the one fold of a run's journal
(:class:`repro.perf.RunRecord`): spans after a torn or flipped line, or
after a record of the wrong shape, are distrusted, and a journal with
no intact span record exits 2.  A journal may hold several traces (a serve
gateway appends every sampled cache hit to its
``serve_spans-<pid>-<start ms>.jsonl``);
the largest trace is analyzed unless ``--trace-id`` picks one.  ``--check`` turns the analysis into a
CI assertion: a single connected tree, spans from at least
``--expect-processes`` distinct pids, a critical path that telescopes
exactly to the root's duration, and (with ``--wall``) a root duration
within ``--tolerance`` of an externally measured wall — exit 1 on any
violation, 2 when there is nothing to analyze.  ``--chrome``
re-exports the selected trace for chrome://tracing or Perfetto.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.manifest import JournalError, RunRecord, journal_path_for
from repro.trace.exporters import spans_to_chrome

#: Minimum same-named spans before the p99 anomaly gate is applied.
MIN_ANOMALY_SAMPLES = 8


def _duration(record: Dict[str, Any]) -> float:
    start = float(record.get("start", 0.0))
    end = float(record.get("end", start))
    return max(0.0, end - start)


def group_by_trace(records: List[Dict[str, Any]]
                   ) -> Dict[str, List[Dict[str, Any]]]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        groups.setdefault(record.get("trace_id") or "?", []).append(record)
    return groups


def build_tree(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Index one trace: span_id -> record, parent -> children, roots.

    A span whose ``parent_id`` is absent from the file is a root — that
    covers both genuinely parentless spans and spans whose parent lives
    in another process that never flushed here (a client's minted
    traceparent, say).  Children are sorted by start time.
    """
    by_id: Dict[str, Dict[str, Any]] = {}
    for record in records:
        by_id.setdefault(record["span_id"], record)
    children: Dict[str, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for record in by_id.values():
        parent = record.get("parent_id")
        if parent and parent in by_id and parent != record["span_id"]:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    for kids in children.values():
        kids.sort(key=lambda r: (float(r.get("start", 0.0)), r["span_id"]))
    roots.sort(key=lambda r: (float(r.get("start", 0.0)), r["span_id"]))
    return {"by_id": by_id, "children": children, "roots": roots}


def critical_path(tree: Dict[str, Any], root: Dict[str, Any]
                  ) -> List[Dict[str, Any]]:
    """The chain that determined end-to-end latency, with exclusive time.

    Walks backwards from the root's end: at each point the span that
    *finished last* within the remaining window was holding the request
    open, so the walk descends into it, attributes the gap after it to
    the parent, and continues from where that child started.  The
    contributions partition the root's window exactly — they sum to the
    root duration — and concurrent siblings that were fully overlapped
    by the chosen child (parallel pool jobs, say) contribute nothing.
    """
    order: List[str] = []
    contrib: Dict[str, float] = {}

    def attribute(record: Dict[str, Any], amount: float) -> None:
        key = record["span_id"]
        if key not in contrib:
            contrib[key] = 0.0
            order.append(key)
        contrib[key] += amount

    def walk(record: Dict[str, Any], lo: float, hi: float) -> None:
        cursor = hi
        kids = sorted(
            tree["children"].get(record["span_id"], []),
            key=lambda r: float(r.get("end", r.get("start", 0.0))),
            reverse=True)
        for kid in kids:
            k_end = float(kid.get("end", kid.get("start", 0.0)))
            k_start = float(kid.get("start", 0.0))
            if k_end > cursor:
                continue  # overlapped by an already-chosen sibling
            if k_end <= lo:
                break
            k_lo = max(lo, k_start)
            attribute(record, cursor - k_end)
            walk(kid, k_lo, k_end)
            cursor = k_lo
            if cursor <= lo:
                break
        attribute(record, max(0.0, cursor - lo))

    start = float(root.get("start", 0.0))
    end = float(root.get("end", start))
    walk(root, start, end)
    return [{"record": tree["by_id"][span_id], "self": contrib[span_id]}
            for span_id in order]


def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    last_end = -math.inf
    for start, end in sorted(intervals):
        if end <= last_end:
            continue
        total += end - max(start, last_end)
        last_end = end
    return total


def self_times(tree: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per span name: count, total duration, and exclusive self time.

    Self time = a span's duration minus the union of its children's
    intervals (clipped to the span), summed over every span of that
    name — the "who actually burned the wall clock" table.
    """
    table: Dict[str, Dict[str, Any]] = {}
    for record in tree["by_id"].values():
        start = float(record.get("start", 0.0))
        end = float(record.get("end", start))
        intervals = []
        for kid in tree["children"].get(record["span_id"], []):
            k_start = max(start, float(kid.get("start", 0.0)))
            k_end = min(end, float(kid.get("end", k_start)))
            if k_end > k_start:
                intervals.append((k_start, k_end))
        duration = _duration(record)
        self_time = max(0.0, duration - _interval_union(intervals))
        row = table.setdefault(record.get("name", "?"),
                               {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += duration
        row["self"] += self_time
    return table


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = q * (len(ordered) - 1)
    lo = int(math.floor(index))
    hi = int(math.ceil(index))
    if lo == hi:
        return ordered[lo]
    frac = index - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def find_anomalies(records: List[Dict[str, Any]],
                   min_samples: int = MIN_ANOMALY_SAMPLES
                   ) -> List[Dict[str, Any]]:
    """Spans slower than the p99 of their same-named peers.

    Only names with at least *min_samples* spans are judged — a p99
    over three samples flags nothing but noise.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_name.setdefault(record.get("name", "?"), []).append(record)
    anomalies = []
    for name, group in sorted(by_name.items()):
        if len(group) < min_samples:
            continue
        durations = [_duration(r) for r in group]
        p99 = percentile(durations, 0.99)
        for record in group:
            duration = _duration(record)
            if duration > p99:
                anomalies.append({
                    "name": name,
                    "span_id": record["span_id"],
                    "pid": record.get("pid"),
                    "duration": round(duration, 6),
                    "p99": round(p99, 6),
                    "label": (record.get("attrs") or {}).get("label"),
                })
    return anomalies


def cross_check_walls(run: RunRecord, tree: Dict[str, Any]
                      ) -> List[Dict[str, Any]]:
    """Match the run's cell walls against their ``job`` spans.

    A job span brackets the cell's execution (plus dispatch overhead),
    so its duration must cover the cell's recorded wall; a job span
    that is missing or *shorter* than that wall is flagged.
    """
    jobs_by_label: Dict[str, Dict[str, Any]] = {}
    for record in tree["by_id"].values():
        if record.get("name") == "job":
            label = (record.get("attrs") or {}).get("label")
            if label is not None and label not in jobs_by_label:
                jobs_by_label[label] = record
    rows = []
    for cell in run.cells.values():
        wall = cell["wall"]
        if wall is None:
            continue
        label = cell["label"]
        span = jobs_by_label.get(label)
        span_wall = _duration(span) if span is not None else None
        # 50 ms of slack: the two walls come from clock reads on
        # different sides of the executor boundary.
        suspect = (span is None
                   or (wall > 0 and span_wall + 0.05 < wall))
        rows.append({"label": label, "manifest_wall": round(wall, 6),
                     "span_wall": (round(span_wall, 6)
                                   if span_wall is not None else None),
                     "suspect": suspect})
    return rows


def analyze(records: List[Dict[str, Any]],
            run: Optional[RunRecord] = None) -> Dict[str, Any]:
    """Full analysis of one trace's span records."""
    tree = build_tree(records)
    pids = sorted({r.get("pid") for r in records if r.get("pid") is not None})
    root = tree["roots"][0] if len(tree["roots"]) == 1 else None
    path = critical_path(tree, root) if root is not None else []
    analysis = {
        "spans": len(tree["by_id"]),
        "processes": pids,
        "roots": [r["span_id"] for r in tree["roots"]],
        "connected": len(tree["roots"]) == 1,
        "root_name": root.get("name") if root is not None else None,
        "root_duration": (round(_duration(root), 6)
                          if root is not None else None),
        "unfinished": sum(1 for r in tree["by_id"].values()
                          if r.get("status") == "unfinished"),
        "errors": sum(1 for r in tree["by_id"].values()
                      if r.get("status") == "error"),
        "critical_path": [
            {"name": hop["record"].get("name", "?"),
             "span_id": hop["record"]["span_id"],
             "pid": hop["record"].get("pid"),
             "label": (hop["record"].get("attrs") or {}).get("label"),
             "duration": round(_duration(hop["record"]), 6),
             "self": round(hop["self"], 6)}
            for hop in path
        ],
        "self_time": {
            name: {"count": row["count"],
                   "total": round(row["total"], 6),
                   "self": round(row["self"], 6)}
            for name, row in sorted(self_times(tree).items())
        },
        "anomalies": find_anomalies(records),
    }
    if run is not None and run.cells:
        analysis["manifest_check"] = cross_check_walls(run, tree)
    analysis["_tree"] = tree  # internal: render/check use it, JSON drops it
    return analysis


# -- rendering ----------------------------------------------------------------

def _fmt_secs(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _render_node(tree: Dict[str, Any], record: Dict[str, Any],
                 depth: int, lines: List[str], base_pid: Any) -> None:
    attrs = record.get("attrs") or {}
    bits = [f"{'  ' * depth}{record.get('name', '?')}"]
    label = attrs.get("label")
    if label:
        bits.append(f"[{label}]")
    mode = attrs.get("mode")
    if mode:
        bits.append(f"({mode})")
    bits.append(_fmt_secs(_duration(record)))
    if record.get("pid") != base_pid:
        bits.append(f"pid {record.get('pid')}")
    status = record.get("status", "ok")
    if status != "ok":
        bits.append(f"!{status}")
    lines.append("    " + " ".join(bits))
    for kid in tree["children"].get(record["span_id"], []):
        _render_node(tree, kid, depth + 1, lines, base_pid)


def render_analysis(source: str, trace_id: str, analysis: Dict[str, Any],
                    other_traces: int, bad_lines: int,
                    problem: Optional[str] = None) -> str:
    tree = analysis["_tree"]
    lines = [f"spans — {source}"]
    note = (f"  trace {trace_id}: {analysis['spans']} spans, "
            f"{len(analysis['processes'])} process(es)")
    if other_traces:
        note += f"  [+{other_traces} other trace(s) in file; see --trace-id]"
    lines.append(note)
    if bad_lines:
        lines.append(f"  note: distrusted {bad_lines} line(s) from the "
                     f"first bad frame on")
    if problem:
        lines.append(f"  note: {problem}")
    if analysis["unfinished"] or analysis["errors"]:
        lines.append(f"  note: {analysis['unfinished']} unfinished, "
                     f"{analysis['errors']} error span(s)")
    lines.append("")
    lines.append("  tree")
    base_pid = (tree["roots"][0].get("pid") if tree["roots"] else None)
    for root in tree["roots"]:
        _render_node(tree, root, 0, lines, base_pid)
    if not analysis["connected"]:
        lines.append(f"  note: {len(analysis['roots'])} roots — the trace "
                     "is not one connected tree")
    if analysis["critical_path"]:
        total = analysis["root_duration"] or 0.0
        lines += ["", f"  critical path ({_fmt_secs(total)} end to end)"]
        for hop in analysis["critical_path"]:
            share = (100.0 * hop["self"] / total) if total > 0 else 0.0
            name = hop["name"] + (f" [{hop['label']}]" if hop["label"]
                                  else "")
            lines.append(f"    {share:5.1f}%  {_fmt_secs(max(0.0, hop['self'])):>9}  "
                         f"{name}")
    lines += ["", "  self time by span name"]
    for name, row in sorted(analysis["self_time"].items(),
                            key=lambda kv: -kv[1]["self"]):
        lines.append(f"    {name:<16} x{row['count']:<3} "
                     f"total {_fmt_secs(row['total']):>9}  "
                     f"self {_fmt_secs(row['self']):>9}")
    if analysis["anomalies"]:
        lines += ["", "  anomalies (> p99 of same-named spans)"]
        for row in analysis["anomalies"]:
            where = f" [{row['label']}]" if row["label"] else ""
            lines.append(f"    {row['name']}{where}: "
                         f"{_fmt_secs(row['duration'])} vs p99 "
                         f"{_fmt_secs(row['p99'])} (pid {row['pid']})")
    check = analysis.get("manifest_check")
    if check:
        suspects = [row for row in check if row["suspect"]]
        lines += ["", f"  manifest cross-check: {len(check)} cell(s), "
                      f"{len(suspects)} suspect"]
        for row in suspects:
            span = (_fmt_secs(row["span_wall"])
                    if row["span_wall"] is not None else "no job span")
            lines.append(f"    {row['label']}: manifest wall "
                         f"{_fmt_secs(row['manifest_wall'])} vs {span}")
    return "\n".join(lines)


# -- --check ------------------------------------------------------------------

def run_checks(analysis: Dict[str, Any], expect_processes: int,
               wall: Optional[float], tolerance: float) -> List[str]:
    """CI assertions over one analyzed trace; returns failure messages."""
    failures = []
    if not analysis["connected"]:
        failures.append(f"expected one connected tree, found "
                        f"{len(analysis['roots'])} roots")
    if len(analysis["processes"]) < expect_processes:
        failures.append(f"expected spans from >= {expect_processes} "
                        f"process(es), found {len(analysis['processes'])} "
                        f"({analysis['processes']})")
    if analysis["critical_path"]:
        total = sum(hop["self"] for hop in analysis["critical_path"])
        root = analysis["root_duration"] or 0.0
        if abs(total - root) > 1e-4 * max(1.0, root):
            failures.append(f"critical path does not telescope: "
                            f"contributions sum to {total:.6f}s, root "
                            f"duration is {root:.6f}s")
        if wall is not None:
            if abs(root - wall) > tolerance * max(wall, 1e-9):
                failures.append(
                    f"root span duration {root:.4f}s is outside "
                    f"{tolerance:.0%} of the measured wall {wall:.4f}s")
    elif wall is not None:
        failures.append("no single root: cannot check --wall")
    for row in analysis.get("manifest_check", []):
        if row["suspect"]:
            span = (f"{row['span_wall']:.4f}s"
                    if row["span_wall"] is not None else "missing")
            failures.append(f"cell {row['label']}: job span ({span}) does "
                            f"not cover manifest wall "
                            f"{row['manifest_wall']:.4f}s")
    return failures


def spans_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness spans",
        description="Reconstruct a traced run's span tree and report "
                    "its critical path, per-name self time and p99 "
                    "anomalies.")
    parser.add_argument("ref",
                        help="a run journal (or a serve_spans-*.jsonl), "
                             "or the run id / run directory of a traced "
                             "run")
    parser.add_argument("--manifest-dir", default=None, metavar="DIR",
                        help="runs root (default results/runs or "
                             "REPRO_RUNS_DIR)")
    parser.add_argument("--trace-id", default=None, metavar="HEX",
                        help="analyze this trace when the file holds "
                             "several (default: the largest)")
    parser.add_argument("--json", action="store_true",
                        help="emit the analysis as JSON instead of text")
    parser.add_argument("--chrome", default=None, metavar="PATH",
                        help="also export the selected trace as Chrome "
                             "trace_event JSON")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: exit 1 unless the trace is one "
                             "connected tree whose critical path "
                             "telescopes to the root duration")
    parser.add_argument("--expect-processes", type=int, default=1,
                        metavar="N",
                        help="--check: require spans from at least N "
                             "distinct pids (default 1)")
    parser.add_argument("--wall", type=float, default=None,
                        metavar="SECONDS",
                        help="--check: externally measured end-to-end "
                             "wall the root span must agree with")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        metavar="FRAC",
                        help="--check --wall: allowed relative "
                             "disagreement (default 0.5)")
    args = parser.parse_args(argv)

    try:
        path = journal_path_for(args.ref, args.manifest_dir)
        run = RunRecord.load(path)
    except JournalError as exc:
        print(f"spans: {exc}", file=sys.stderr)
        return 2
    records, bad = run.spans, run.distrusted
    if not records:
        print(f"spans: {path} holds no intact span records"
              + (f" ({bad} distrusted line(s))" if bad else "")
              + " — was the run traced? see --trace-sample",
              file=sys.stderr)
        return 2
    groups = group_by_trace(records)
    if args.trace_id:
        selected = groups.get(args.trace_id)
        if not selected:
            print(f"spans: trace {args.trace_id!r} not in {path} "
                  f"(has: {', '.join(sorted(groups))})", file=sys.stderr)
            return 2
        trace_id = args.trace_id
    else:
        trace_id = max(groups, key=lambda t: (len(groups[t]), t))
        selected = groups[trace_id]

    analysis = analyze(selected, run=run)
    tree = analysis.pop("_tree")
    source = path if run.run_id is None else f"{path} (run {run.run_id})"

    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(spans_to_chrome(selected), fh, indent=2)

    if args.json:
        payload = dict(analysis, source=source, trace_id=trace_id,
                       other_traces=len(groups) - 1, bad_lines=bad)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        analysis["_tree"] = tree
        print(render_analysis(source, trace_id, analysis,
                              other_traces=len(groups) - 1, bad_lines=bad,
                              problem=run.problem))
        analysis.pop("_tree")
        if args.chrome:
            print(f"chrome trace written to {args.chrome}")

    if args.check:
        failures = run_checks(analysis, args.expect_processes,
                              args.wall, args.tolerance)
        if failures:
            for failure in failures:
                print(f"spans: CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"spans: checks passed ({analysis['spans']} spans, "
              f"{len(analysis['processes'])} process(es))")
    return 0


if __name__ == "__main__":
    sys.exit(spans_main())
