"""Same-sitting interp-vs-vec benchmark over the cold figure2 grid.

The drift lesson of DESIGN.md §6: absolute walls on a given
host move by ~30% between sittings, so a speedup claim is only honest
when both sides of the pair are measured back-to-back on the same
machine.  This script does exactly that — it sweeps every figure2
``--quick`` cell through the interp backend, then through the vec
backend, in one process, verifying **digit-exact** statistics cell by
cell, and records the paired walls plus their ratio.

Usage::

    # measure, verify parity, update the committed snapshot
    PYTHONPATH=src python benchmarks/bench_vec.py

    # CI perf-gate: record fresh timings next to the baseline and fail
    # if the same-sitting speedup falls below the floor (the *ratio* is
    # host-independent; the absolute walls are not)
    PYTHONPATH=src python benchmarks/bench_vec.py \
        --record-to fresh_vec.json --fail-below 1.6

    # quick subset while iterating on a kernel
    PYTHONPATH=src python benchmarks/bench_vec.py --benchmarks compress

Any per-cell statistic mismatch between the backends exits 1
immediately — a fast wrong simulator is worthless.  The snapshot is
``harness compare`` compatible (bench mode), but the committed gate is
the recorded ``speedup``: compare the ratios, never a fresh absolute
wall against a committed one.
"""

import argparse
import sys
import time
from dataclasses import fields

REPO_ROOT_BENCH = "BENCH_vec.json"

QUICK_INSTRUCTIONS = 7500
QUICK_WARMUP = 3750
MACHINE_KEYS = ("ooo", "inorder")
LABELS = ("N", "S1", "U1", "S10", "U10")


def _cells(benchmarks):
    return [(b, m, label)
            for b in benchmarks for m in MACHINE_KEYS for label in LABELS]


def _sweep(run, cells, configs):
    """Run every cell through *run* and return (results, wall_seconds)."""
    out = {}
    start = time.perf_counter()
    for benchmark, machine, label in cells:
        out[(benchmark, machine, label)] = run(
            benchmark, machine, configs[label],
            QUICK_INSTRUCTIONS, QUICK_WARMUP)
    return out, time.perf_counter() - start


def _diff(interp_results, vec_results):
    """Digit-exact per-field diff; returns a list of mismatch strings."""
    from repro.harness.runner import BarResult

    names = [f.name for f in fields(BarResult) if f.name != "normalized"]
    bad = []
    for cell, a in interp_results.items():
        b = vec_results[cell]
        for name in names:
            if getattr(a, name) != getattr(b, name):
                bad.append(f"{'/'.join(cell)} {name}: interp="
                           f"{getattr(a, name)!r} vec={getattr(b, name)!r}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated subset (default: the full "
                             "13-benchmark figure2 grid)")
    parser.add_argument("--record-to", default=REPO_ROOT_BENCH,
                        metavar="PATH",
                        help=f"snapshot file to write "
                             f"(default {REPO_ROOT_BENCH})")
    parser.add_argument("--no-record", action="store_true",
                        help="measure and verify only; write nothing")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="R",
                        help="exit 1 unless the same-sitting speedup "
                             "(interp wall / vec wall) is at least R")
    args = parser.parse_args(argv)

    from repro.exec import atomic_write_json
    from repro.harness.runner import bar_config, clear_streams, run_bar
    from repro.workloads import FIGURE2_BENCHMARKS

    benchmarks = (args.benchmarks.split(",") if args.benchmarks
                  else list(FIGURE2_BENCHMARKS))
    cells = _cells(benchmarks)
    configs = {label: bar_config(label) for label in LABELS}

    # Same sitting, same process: interp sweep first, vec sweep second.
    # Both are cold — no result cache in sight, and each sweep starts
    # with an empty stream cache (its fill is part of the wall, as in a
    # real run; vec never builds its rows from the streams interp left).
    def run_interp(benchmark, machine, bar, instructions, warmup):
        return run_bar(benchmark, machine, bar, instructions, warmup,
                       backend="interp")

    def run_vec(benchmark, machine, bar, instructions, warmup):
        return run_bar(benchmark, machine, bar, instructions, warmup,
                       backend="vec")

    clear_streams()
    interp_results, interp_wall = _sweep(run_interp, cells, configs)
    clear_streams()
    vec_results, vec_wall = _sweep(run_vec, cells, configs)

    mismatches = _diff(interp_results, vec_results)
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")
    speedup = interp_wall / vec_wall if vec_wall else float("inf")
    print(f"{len(cells)} cells; interp {interp_wall:.2f}s, "
          f"vec {vec_wall:.2f}s — speedup x{speedup:.2f}, "
          f"{len(mismatches)} mismatching field(s)")
    if mismatches:
        return 1

    if not args.no_record:
        payload = {
            "schema": 1,
            "microbenchmarks": {
                "unit": "seconds (one cold figure2 --quick sweep per "
                        "backend, paired in the same sitting)",
                "timings": {
                    "figure2_quick_interp": round(interp_wall, 2),
                    "figure2_quick_vec": round(vec_wall, 2),
                },
            },
            "vec": {
                "cells": len(cells),
                "benchmarks": benchmarks,
                "instructions": QUICK_INSTRUCTIONS,
                "warmup": QUICK_WARMUP,
                "speedup": round(speedup, 2),
                "mismatches": 0,
                "measured": time.strftime("%Y-%m-%d"),
                "note": "Both walls measured back-to-back in one process "
                        "(this script), so the speedup ratio is immune to "
                        "the ~30% between-sitting host drift documented "
                        "in DESIGN.md §6. Gate on the ratio, never "
                        "on a fresh absolute wall vs a committed one.",
            },
        }
        atomic_write_json(args.record_to, payload)
        print(f"recorded: {args.record_to}")

    if args.fail_below is not None and speedup < args.fail_below:
        print(f"FAIL: same-sitting speedup x{speedup:.2f} is below the "
              f"x{args.fail_below:.2f} floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
