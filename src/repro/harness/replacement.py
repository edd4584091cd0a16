"""``harness bench replacement``: the replacement-policy ablation grid.

Runs the baseline bar (label ``N``) for every (benchmark, policy) pair
through the exec engine — content-addressed, cacheable, resumable like
any figure grid — and tabulates cycles and L1 miss rate per policy with
deltas against LRU.  The default machine is ``lab`` (in-order core with
a 4-way 8KB L1): on the paper's direct-mapped in-order L1 every policy
is a no-op, and at 2-way tree-PLRU *is* LRU, so 4-way is the smallest
machine where the whole registry separates.

``--explain DIR`` additionally traces, for each benchmark, the LRU run
and the policy that deviates most from it (``repro.obs`` observer), and
writes each trace's ``harness explain`` analysis alongside — the
mechanism diagnosis for why that pair differs.  The committed artifact
``results/replacement_ablation.json`` is produced by::

    python -m repro.harness bench replacement --quick \\
        --benchmarks compress,espresso,su2cor,ora \\
        --explain results/golden/explain
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

#: Default ablation workloads: two miss-heavy integer codes, a streaming
#: FP code, and a nearly miss-free control.
DEFAULT_BENCHMARKS = ("compress", "espresso", "su2cor", "ora")
DEFAULT_MACHINE = "lab"
DEFAULT_OUT = "results/replacement_ablation.json"


def run_ablation(benchmarks, policies, machine: str, instructions: int,
                 warmup: int, seed: int = 0, engine=None
                 ) -> Dict[str, Any]:
    """Run the grid and fold it into the ablation payload."""
    from repro.exec import ExecOptions, JobRunner, SimJob

    if engine is None:
        engine = JobRunner(ExecOptions(jobs=1, cache=False))
    jobs = [
        SimJob.bar(benchmark=benchmark, machine=machine, label="N",
                   instructions=instructions, warmup=warmup, seed=seed,
                   policy=policy)
        for benchmark in benchmarks
        for policy in policies
    ]
    results = engine.run(jobs)
    cells: Dict[str, Dict[str, Any]] = {}
    for job, result in zip(jobs, results):
        if result is None:
            continue
        policy = job.config_dict().get("policy", "lru")
        cells.setdefault(job.benchmark, {})[policy] = {
            "cycles": result["cycles"],
            "l1_miss_rate": result["l1_miss_rate"],
        }
    for benchmark, row in cells.items():
        base = row.get("lru", {}).get("cycles")
        for policy, cell in row.items():
            cell["delta_vs_lru"] = (
                round(cell["cycles"] / base - 1.0, 6) if base else None)
    spread = {
        benchmark: round(max(abs(cell["delta_vs_lru"] or 0.0)
                             for cell in row.values()), 6)
        for benchmark, row in cells.items()
    }
    return {
        "kind": "replacement_ablation",
        "machine": machine,
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "policies": list(policies),
        "benchmarks": list(benchmarks),
        "cells": cells,
        "spread": spread,
    }


def render_ablation(payload: Dict[str, Any]) -> str:
    """ASCII table: one row per benchmark, one column per policy."""
    policies = payload["policies"]
    lines = [
        f"replacement ablation — machine {payload['machine']}, "
        f"label N, {payload['instructions']} instructions",
        f"{'benchmark':>10} " + " ".join(f"{p:>14}" for p in policies),
    ]
    for benchmark in payload["benchmarks"]:
        row = payload["cells"].get(benchmark, {})
        fields = []
        for policy in policies:
            cell = row.get(policy)
            if cell is None:
                fields.append(f"{'—':>14}")
            elif policy == "lru" or cell["delta_vs_lru"] is None:
                fields.append(f"{cell['cycles']:>14}")
            else:
                fields.append(
                    f"{cell['cycles']:>7} {100 * cell['delta_vs_lru']:+5.1f}%")
        lines.append(f"{benchmark:>10} " + " ".join(fields))
    lines.append("cells show cycles (and % vs lru); spread per benchmark: "
                 + ", ".join(f"{b}={100 * s:.1f}%"
                             for b, s in payload["spread"].items()))
    return "\n".join(lines)


def _most_different_policy(row: Dict[str, Dict[str, Any]],
                           policies: Sequence[str]) -> Optional[str]:
    """The non-lru policy with the largest |delta vs lru|.

    Ties go to the latest entry of *policies* (the grid's column order),
    never to the row's key order: a live payload and the same payload
    read back from key-sorted JSON must pick the same rival.
    """
    best, best_delta = None, 0.0
    for policy in policies:
        cell = row.get(policy)
        if cell is None or policy == "lru":
            continue
        delta = abs(cell.get("delta_vs_lru") or 0.0)
        if delta >= best_delta:
            best, best_delta = policy, delta
    return best


def write_explain_artifacts(payload: Dict[str, Any], directory: str,
                            seed: int = 0,
                            trace_threshold: float = 0.01) -> List[str]:
    """Trace + explain the (lru, most-different-policy) pair per benchmark.

    Reruns those cells with the :mod:`repro.obs` observer attached
    (results stay digit-exact; only the trace is new) and writes the
    matching ``*.explain.json`` analyses under *directory*.  The raw
    ``<benchmark>_<machine>_N.<policy>.events.jsonl`` traces (hundreds
    of KB each) are kept only for benchmarks whose ablation spread
    reaches *trace_threshold* — those are the cells the diagnosis has
    to explain.  Returns the written paths.
    """
    import os

    from repro.harness.explain import analyze_trace
    from repro.harness.runner import bar_config, run_bar
    from repro.obs import Observer
    from repro.obs.export import write_jsonl

    os.makedirs(directory, exist_ok=True)
    machine = payload["machine"]
    written: List[str] = []
    for benchmark in payload["benchmarks"]:
        row = payload["cells"].get(benchmark, {})
        rival = _most_different_policy(row, payload["policies"])
        keep_trace = payload["spread"].get(benchmark, 0.0) >= trace_threshold
        policies = ["lru"] + ([rival] if rival else [])
        for policy in policies:
            observer = Observer(trace=True)
            run_bar(benchmark, machine, bar_config("N"),
                    payload["instructions"], payload["warmup"], seed=seed,
                    observe=observer, policy=policy)
            stem = f"{benchmark}_{machine}_N.{policy}"
            analysis = analyze_trace(observer.events)
            analysis["source"] = {"benchmark": benchmark,
                                  "machine": machine, "label": "N",
                                  "policy": policy,
                                  "delta_vs_lru": row.get(policy, {})
                                  .get("delta_vs_lru")}
            if keep_trace:
                trace_path = os.path.join(directory,
                                          f"{stem}.events.jsonl")
                write_jsonl(observer.events, trace_path)
                written.append(trace_path)
            explain_path = os.path.join(directory, f"{stem}.explain.json")
            with open(explain_path, "w") as fh:
                json.dump(analysis, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(explain_path)
    return written


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description="Committed ablation grids over simulator knobs.")
    parser.add_argument("what", choices=["replacement"],
                        help="which ablation to run")
    parser.add_argument("--benchmarks",
                        default=",".join(DEFAULT_BENCHMARKS),
                        help="comma-separated SPEC92 benchmark subset")
    parser.add_argument("--policies", default=None,
                        help="comma-separated policy subset (default: "
                             "the full registry)")
    parser.add_argument("--machine", default=DEFAULT_MACHINE,
                        help="machine key (default lab: 4-way L1, the "
                             "smallest machine where all policies differ)")
    parser.add_argument("--quick", action="store_true",
                        help="4x shorter runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--progress", action="store_true")
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="PATH",
                        help=f"ablation JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--explain", default=None, metavar="DIR",
                        help="also trace + explain the lru/most-different "
                             "pair per benchmark under DIR")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    from repro.exec import ExecOptions, JobRunner, atomic_write_json
    from repro.harness.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
    from repro.memory import available_policies

    benchmarks = [b for b in args.benchmarks.split(",") if b]
    policies = (args.policies.split(",") if args.policies
                else list(available_policies()))
    unknown = sorted(set(policies) - set(available_policies()))
    if unknown:
        parser.error(f"unknown policies {unknown}; choose from "
                     f"{available_policies()}")
    if "lru" not in policies:
        policies.insert(0, "lru")  # deltas need the reference column
    divisor = 4 if args.quick else 1
    engine = JobRunner(ExecOptions(
        jobs=args.jobs, cache=not args.no_cache, progress=args.progress,
        run_meta={"experiment": "bench-replacement", "seed": args.seed}))
    payload = run_ablation(
        benchmarks, policies, args.machine,
        DEFAULT_INSTRUCTIONS // divisor, DEFAULT_WARMUP // divisor,
        seed=args.seed, engine=engine)
    print(render_ablation(payload))
    import os
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    atomic_write_json(args.out, payload)
    print(f"ablation written to {args.out}")
    if args.explain:
        written = write_explain_artifacts(payload, args.explain,
                                          seed=args.seed)
        print(f"explain artifacts ({len(written)}) written under "
              f"{args.explain}")
    print(engine.stats.summary(), file=sys.stderr)
    return 0
