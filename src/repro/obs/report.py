"""The ``report`` subcommand: render a text report from a trace or live run.

Everything is computed from the event list alone — never from simulator
counters — so the same code path serves a re-loaded ``*.events.jsonl``
trace (``--trace-file``) and a live single-cell run (``--benchmark /
--machine / --label``).  In live mode the simulator's own aggregate
counters are printed alongside as a cross-check: the event-derived miss
breakdown must reproduce the cell's ``l1_miss_rate`` exactly, which is
what ``tests/test_obs_report.py`` asserts.

Usage::

    python -m repro.harness report --trace-file traces/compress_ooo_S10.events.jsonl
    python -m repro.harness report <run_id> [--cell SUBSTR]
    python -m repro.harness report --benchmark compress --machine ooo \
        --label S10 --quick

The bare-argument form mirrors ``harness explain``: a run id (or run
directory, or ``journal.jsonl`` path) from a ``--trace-events DIR`` run
resolves through the run's journal and reports every cell that
recorded a trace, ``--cell`` narrowing by label substring.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.obs import events as ev
from repro.obs.metrics import Histogram, top_n


def summarize(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce an event list to the report's aggregate view."""
    counts: Dict[str, int] = {}
    miss_levels = {2: 0, 3: 0}
    stream_hits = stream_misses = 0
    latency = Histogram("miss_latency")
    handler_injected = Histogram("handler_injected")
    handler_committed = Histogram("handler_committed")
    conflict_heat: Dict[str, Dict[int, int]] = {}
    fills: Dict[str, int] = {}
    mshr_high = 0
    mshr_squashed = 0
    writebacks = 0
    first_cycle: Optional[int] = None
    last_cycle = 0
    for event in events:
        kind = event["kind"]
        counts[kind] = counts.get(kind, 0) + 1
        cycle = event["cycle"]
        if first_cycle is None:
            first_cycle = cycle
        last_cycle = cycle if cycle > last_cycle else last_cycle
        if kind == ev.L1_MISS:
            if event.get("via") == "stream":
                stream_misses += 1
            else:
                miss_levels[event["level"]] = (
                    miss_levels.get(event["level"], 0) + 1)
                latency.record(event["ready"] - event["start"])
        elif kind == ev.L1_HIT:
            if event.get("via") == "stream":
                stream_hits += 1
        elif kind == ev.CACHE_FILL:
            cache = event["cache"]
            fills[cache] = fills.get(cache, 0) + 1
        elif kind == ev.CACHE_EVICT:
            cache = event["cache"]
            heat = conflict_heat.setdefault(cache, {})
            heat[event["set"]] = heat.get(event["set"], 0) + 1
            if event.get("dirty"):
                writebacks += 1
        elif kind == ev.MSHR_ALLOC:
            occupancy = event.get("occupancy", 0)
            if occupancy > mshr_high:
                mshr_high = occupancy
        elif kind == ev.MSHR_RELEASE:
            if event.get("squashed"):
                mshr_squashed += 1
        elif kind == ev.TRAP_FIRE:
            handler_injected.record(event.get("handler_len", 0))
        elif kind == ev.TRAP_RETURN:
            handler_committed.record(event.get("committed", 0))
    hits = counts.get(ev.L1_HIT, 0)
    misses = counts.get(ev.L1_MISS, 0)
    merges = counts.get(ev.L1_MERGE, 0)
    accesses = hits + misses + merges
    return {
        "events": len(events),
        "counts": counts,
        "cycles": (first_cycle or 0, last_cycle),
        "accesses": accesses,
        "hits": hits,
        "misses": misses,
        "merges": merges,
        "miss_rate": (misses + merges) / accesses if accesses else 0.0,
        "l2_hits": miss_levels.get(2, 0),
        "mem_misses": miss_levels.get(3, 0),
        "stream_hits": stream_hits,
        "stream_misses": stream_misses,
        "latency": latency,
        "fills": fills,
        "conflict_heat": conflict_heat,
        "writeback_evictions": writebacks,
        "mshr_allocs": counts.get(ev.MSHR_ALLOC, 0),
        "mshr_merges": counts.get(ev.MSHR_MERGE, 0),
        "mshr_fills": counts.get(ev.MSHR_FILL, 0),
        "mshr_releases": counts.get(ev.MSHR_RELEASE, 0),
        "mshr_squashed": mshr_squashed,
        "mshr_high_water": mshr_high,
        "trap_fires": counts.get(ev.TRAP_FIRE, 0),
        "trap_returns": counts.get(ev.TRAP_RETURN, 0),
        "handler_injected": handler_injected,
        "handler_committed": handler_committed,
    }


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def render_report(summary: Dict[str, Any], title: str = "trace") -> str:
    """Render the per-benchmark text report from a :func:`summarize` dict."""
    lo, hi = summary["cycles"]
    accesses = summary["accesses"]
    lines = [
        f"obs report — {title}",
        f"  {summary['events']} events over cycles [{lo}, {hi}]",
        "",
        "miss breakdown",
        f"  demand accesses    {accesses}",
        f"  L1 hits            {summary['hits']:>8}  "
        f"{_pct(summary['hits'], accesses)}",
        f"  primary misses     {summary['misses']:>8}  "
        f"{_pct(summary['misses'], accesses)}",
        f"    L2 hits          {summary['l2_hits']:>8}",
        f"    memory           {summary['mem_misses']:>8}",
        f"  secondary (merged) {summary['merges']:>8}  "
        f"{_pct(summary['merges'], accesses)}",
        f"  miss rate          {summary['miss_rate']:.4f}",
    ]
    if summary["stream_hits"] or summary["stream_misses"]:
        lines.append(f"  via stream buffer  "
                     f"{summary['stream_hits']} hit, "
                     f"{summary['stream_misses']} in flight")
    latency: Histogram = summary["latency"]
    if latency.count:
        lines += ["", f"miss latency (cycles): mean {latency.mean:.1f}, "
                      f"min {latency.min}, max {latency.max}"]
        lines += latency.render()
    lines += ["", "top conflict sets (evictions)"]
    if summary["conflict_heat"]:
        for cache, heat in sorted(summary["conflict_heat"].items()):
            total = sum(heat.values())
            hot = ", ".join(f"set {s}: {n}" for s, n in top_n(heat))
            lines.append(f"  {cache:<4} {total:>6} total — {hot}")
    else:
        lines.append("  (no evictions)")
    lines += [
        "",
        "MSHR accounting",
        f"  allocated {summary['mshr_allocs']}, "
        f"merged {summary['mshr_merges']}, "
        f"filled {summary['mshr_fills']}",
        f"  released {summary['mshr_releases']} "
        f"({summary['mshr_squashed']} squashed), "
        f"high water {summary['mshr_high_water']}",
    ]
    lines += ["", "informing traps"]
    if summary["trap_fires"]:
        injected: Histogram = summary["handler_injected"]
        committed: Histogram = summary["handler_committed"]
        lines.append(f"  fired {summary['trap_fires']} "
                     f"(handler body {injected.mean:.1f} insts mean), "
                     f"returned {summary['trap_returns']}")
        if committed.count:
            lines.append(f"  committed per handler run: "
                         f"mean {committed.mean:.1f}, "
                         f"min {committed.min}, max {committed.max}")
    else:
        lines.append("  (none fired)")
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------

def _live_events(args):
    """Run one figure cell with an Observer attached; return it + result."""
    from repro.harness.runner import (
        DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, bar_config, run_bar)
    from repro.obs.observer import Observer

    divisor = 4 if args.quick else 1
    observer = Observer(trace=True)
    result = run_bar(
        args.benchmark, args.machine, bar_config(args.label),
        instructions=DEFAULT_INSTRUCTIONS // divisor,
        warmup=DEFAULT_WARMUP // divisor,
        seed=args.seed, observe=observer)
    return observer, result


def report_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness report",
        description="Render a per-benchmark observability report from a "
                    "trace file or a live single-cell run.")
    parser.add_argument("ref", nargs="?", default=None,
                        metavar="TRACE_OR_RUN_ID",
                        help="an *.events.jsonl trace file, or the run "
                             "id, run directory or journal.jsonl of a "
                             "--trace-events run (same resolution as "
                             "'harness explain')")
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="render from an existing *.events.jsonl trace")
    parser.add_argument("--cell", default=None, metavar="SUBSTR",
                        help="run-id mode: only cells whose label "
                             "contains SUBSTR")
    parser.add_argument("--manifest-dir", default=None, metavar="DIR",
                        help="run-id mode: runs root (default "
                             "results/runs or REPRO_RUNS_DIR)")
    parser.add_argument("--benchmark", default=None,
                        help="live mode: SPEC92 benchmark name")
    parser.add_argument("--machine", default=None,
                        choices=("ooo", "inorder"),
                        help="live mode: machine model")
    parser.add_argument("--label", default="N",
                        help="live mode: bar label (N, S1, U10, ...; "
                             "default N)")
    parser.add_argument("--quick", action="store_true",
                        help="live mode: 4x shorter run")
    parser.add_argument("--seed", type=int, default=0,
                        help="live mode: workload seed offset")
    parser.add_argument("--chrome", default=None, metavar="PATH",
                        help="also write the events as a Chrome "
                             "trace_event JSON file (run-id mode: the "
                             "last reported cell)")
    args = parser.parse_args(argv)

    sources: List[Any] = []
    result = None
    if args.ref or args.trace_file:
        # A trace file, or a run id resolved the same way `harness
        # explain` resolves its input; both load strictly.
        from repro.harness.explain import _load_trace, _resolve_traces
        pairs, error = (_resolve_traces(args.ref, args.manifest_dir,
                                        args.cell) if args.ref
                        else ([(args.trace_file, args.trace_file)], None))
        if error:
            print(f"report: {error}", file=sys.stderr)
            return 2
        for title, path in pairs:
            events, error = _load_trace(path)
            if events is None:
                print(f"report: {error}", file=sys.stderr)
                return 2
            sources.append((title, events))
    elif args.benchmark and args.machine:
        observer, result = _live_events(args)
        sources.append(
            (f"{args.benchmark}/{args.machine}/{args.label} (live)",
             observer.events))
    else:
        parser.error("pass --trace-file PATH, a trace-file/run-id "
                     "argument, or --benchmark and --machine for a "
                     "live run")

    print("\n\n".join(render_report(summarize(events), title)
                      for title, events in sources))
    events = sources[-1][1]
    if result is not None:
        print(f"\nsimulator cross-check: {result.cycles} cycles, "
              f"l1_miss_rate {result.l1_miss_rate:.4f}, "
              f"{result.handler_invocations} handler invocations")
    if args.chrome:
        from repro.obs.export import write_chrome_trace
        write_chrome_trace(events, args.chrome)
        print(f"chrome trace written to {args.chrome}")
    return 0
