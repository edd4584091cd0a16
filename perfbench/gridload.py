"""The fig2-interp and fig2-vec workloads (parent side).

Each cold pass runs in a fresh ``gridpass.py`` process; passes repeat
until ``--seconds`` of measuring have passed.  Outputs are checked
here, after all timing is done.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, List

from cells import (QUICK_INSTRUCTIONS, QUICK_WARMUP, cross_check_cells,
                   profile_benchmarks)
from common import (Ctx, measured_passes, report_end_to_end, report_layers,
                    report_unattributed, run_child, setup_launches,
                    timed_launch)
from report import Report
from stats import result_digest

GRIDPASS = os.path.join("perfbench", "gridpass.py")
GOLDEN = os.path.join("results", "golden", "figure2_quick.json")
CELLS = 130


def _key(row) -> tuple:
    return (row["benchmark"], row["machine"], row["label"])


def setup_samples(ctx: Ctx, backend: str):
    env = ctx.env(backend)

    def launch():
        work = ctx.fresh_dir("setup")
        return timed_launch(ctx, [GRIDPASS, "--work", work, "--setup-only"],
                            env)
    return setup_launches(ctx, launch)


def grid_pass(ctx: Ctx, backend: str, traced: bool = False) -> Dict:
    """One cold pass, with its cache-hit reruns, in a fresh process.  Its
    times are normalized by the reference loops run inside it."""
    work = ctx.fresh_dir("grid")
    out = os.path.join(work, "pass.json")
    argv = [GRIDPASS, "--work", work, "--seed", str(ctx.seed), "--out", out]
    if traced:
        argv.append("--traced")
    run_child(ctx, argv, ctx.env(backend))
    with open(out) as fh:
        result = json.load(fh)
    ctx.ref.extend(result["ref_ms"])
    return result


def check_outputs(ctx: Ctx, report: Report, backend: str,
                  passes: List[Dict]) -> None:
    """Golden parity at seed 0, identical passes, and agreement with the
    other backend on a seeded sample of cells."""
    first = passes[0]["rows"]
    report.attempted += sum(len(p["rows"]) + len(p["hit"])
                            for p in passes)
    for p in passes:
        report.fail(p["failed"], "engine failures")
        report.fail(p["warm_mismatches"], "warm hits differing from the "
                                          "cold result")
        report.fail(max(0, CELLS - len(p["rows"])), "cells missing")
    for p in passes[1:]:
        report.fail(sum(1 for a, b in zip(p["rows"], first) if a != b),
                    "cells differing between passes")
    digest = result_digest(first)
    report.note(f"result digest {digest[:16]} over {len(first)} cells")
    if ctx.seed == 0:
        with open(os.path.join(ctx.root, GOLDEN)) as fh:
            golden = {_key(row): row for row in json.load(fh)["bars"]}
        matches = sum(1 for row in first if golden.get(_key(row)) == row)
        report.note(f"golden parity {matches}/{len(golden)} cells")
        report.fail(len(golden) - matches, "cells differing from "
                                           + GOLDEN)
    _cross_check(ctx, report, backend, first)


def _cross_check(ctx: Ctx, report: Report, backend: str, rows) -> None:
    from repro.harness.runner import bar_config, run_bar
    from repro.workloads import FIGURE2_BENCHMARKS

    other = "interp" if backend == "vec" else "vec"
    by_key = {_key(row): row for row in rows}
    cells = cross_check_cells(ctx.seed, FIGURE2_BENCHMARKS)
    os.environ["REPRO_BACKEND"] = other
    try:
        bad = 0
        for cell in cells:
            got = asdict(run_bar(cell["benchmark"], cell["machine"],
                                 bar_config(cell["label"]),
                                 QUICK_INSTRUCTIONS, QUICK_WARMUP,
                                 seed=ctx.seed))
            want = dict(by_key.get(_key(cell), {}))
            want["normalized"] = got["normalized"]  # set by the figure
            bad += got != want
    finally:
        del os.environ["REPRO_BACKEND"]
    report.attempted += len(cells)
    report.note(f"{other} cross-check {len(cells) - bad}/{len(cells)} "
                f"cells")
    report.fail(bad, f"cells differing on the {other} backend")


def timed(ctx: Ctx, report: Report, backend: str) -> None:
    setups = setup_samples(ctx, backend)
    passes = measured_passes(ctx, lambda: grid_pass(ctx, backend))
    check_outputs(ctx, report, backend, passes)
    report_end_to_end(report, setups, passes)


def traced(ctx: Ctx, report: Report, backend: str) -> None:
    from repro.workloads import FIGURE2_BENCHMARKS

    setups = setup_samples(ctx, backend)
    plain = grid_pass(ctx, backend)
    run = grid_pass(ctx, backend, traced=True)
    profiled = profile_benchmarks(ctx.seed, FIGURE2_BENCHMARKS)
    out = os.path.join(ctx.fresh_dir("profile"), "profile.json")
    run_child(ctx, [GRIDPASS, "--seed", str(ctx.seed), "--out", out,
                    "--profile", ",".join(profiled)], ctx.env(backend))
    with open(out) as fh:
        split = json.load(fh)["profile"]
    check_outputs(ctx, report, backend, [plain, run])
    report.note(f"profiled columns: {', '.join(profiled)}")
    buckets = run["layers"]["buckets"]
    main, warm = buckets["main"], buckets.get("warm", {})
    calls, total = main["calls"], main["total"]
    f = run["factor"]
    engine = main["self"].get("exec.run", 0.0) - run["sink_ref_s"]
    attributed = report_layers(report, ctx, setups, plain, run, run["rows"],
                               split, engine)
    # Cold cells probe once each; the hits probe in the warm reruns, which
    # the cold wall excludes.
    probe = total.get("exec.probe", 0.0)
    warm_probe = warm.get("total", {}).get("exec.probe", 0.0)
    report.host_time("exec.probe_s", "s", (probe + warm_probe) * f,
                     probe + warm_probe)
    decode = total.get("vec.decode", 0.0)
    replay = total.get("vec.kernel", 0.0) - decode
    report.host_time("vec.decode_s", "s", decode * f, decode)
    report.host_time("vec.replay_s", "s", replay * f, replay)
    vec_cells = calls.get("vec.stream", 0)
    report.value("vec.decode_reuse", "ratio",
                 (vec_cells - calls.get("vec.decodes", 0)) / vec_cells
                 if vec_cells else 0.0, vec_cells)
    report.value("vec.fallback_cells", "count",
                 run["backends"].get("interp", 0) if backend == "vec"
                 else 0)
    report.value("exec.failed", "count", run["failed"])
    report.value("exec.retries", "count", run["retries"])
    report.value("durable.journal_errors", "count", run["journal_errors"])
    report_unattributed(report, run, run["grid_raw_s"], attributed + probe,
                        "of traced cold wall")
