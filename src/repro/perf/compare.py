"""``python -m repro.harness compare A B`` — diff two recorded runs.

Two comparison modes, picked from what A and B actually are:

* **run mode** — A/B are run ids under ``results/runs`` (or run
  directories, or ``journal.jsonl`` paths), each folded from its journal
  by :class:`repro.perf.RunRecord`, so a killed run compares as well as
  a finished one.  Over the cells that finished on both sides,
  simulated statistics and (for ``--trace-events`` runs) the metrics
  digests are compared **digit-exact**: the simulators are
  deterministic, so any drift between equal-config runs is a
  correctness alarm, never noise.  Cells unfinished, drained or failed
  on either side are reported as notes.  Wall times get the opposite
  treatment — per-cell wall ratios are resampled (bootstrap over the
  repeated cells) into a confidence interval, and a delta whose CI
  straddles 1.0 is classified ``no change`` rather than eyeballed.
* **bench mode** — A/B are BENCH snapshot files (``BENCH_vec.json``,
  ``BENCH_serve.json``, or the hotpath records
  ``benchmarks/test_hotpath_micro.py`` writes); their
  ``microbenchmarks`` timings are compared as ratios against
  ``--warn-above`` / ``--fail-above`` thresholds.  The ratio means
  something only when both sides were timed in one sitting: the
  perf-gate CI job records the merge base and the change alternately
  and compares their median timings this way.

Exit status: 0 when nothing regressed (warnings included), 1 on any
simulated-stat drift or a wall regression at/above ``--fail-above``,
2 on usage/schema errors.  ``--json`` emits the full machine-readable
report instead of text.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf.manifest import JournalError, RunRecord, journal_path_for

#: Default noise thresholds on wall-time ratios (B over A).
DEFAULT_FAIL_ABOVE = 1.25
DEFAULT_WARN_ABOVE = 1.10

#: Bench snapshot schemas this build understands, by discriminator key.
_BENCH_SCHEMAS = {"microbenchmarks": 1}

#: Verdicts that carry exit status 1.
FAILING_VERDICTS = ("regression", "sim drift")


# -- statistics ---------------------------------------------------------------

def bootstrap_ci(samples: Sequence[float], resamples: int = 2000,
                 seed: int = 1234, confidence: float = 0.95
                 ) -> Tuple[float, float, float]:
    """(mean, ci_lo, ci_hi) of *samples* via a seeded percentile bootstrap.

    Deterministic for a given seed, so test runs and CI retries agree.
    With a single sample the interval degenerates to the point.
    """
    k = len(samples)
    if k == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    mean = sum(samples) / k
    if k == 1:
        return mean, samples[0], samples[0]
    rng = random.Random(seed)
    means = sorted(
        sum(rng.choice(samples) for _ in range(k)) / k
        for _ in range(resamples))
    alpha = (1.0 - confidence) / 2.0
    lo = means[int(alpha * (resamples - 1))]
    hi = means[int((1.0 - alpha) * (resamples - 1))]
    return mean, lo, hi


def classify_ratio(mean: float, lo: float, hi: float,
                   fail_above: float = DEFAULT_FAIL_ABOVE,
                   warn_above: float = DEFAULT_WARN_ABOVE) -> str:
    """Noise-aware verdict for a wall-time ratio with its bootstrap CI."""
    if lo <= 1.0 <= hi:
        return "no change"
    if mean >= fail_above:
        return "regression"
    if mean >= warn_above:
        return "warn"
    return "faster" if mean < 1.0 else "slower (within threshold)"


# -- input resolution ---------------------------------------------------------

def _load_side(ref: str, root: Optional[str]) -> Tuple[str, Any]:
    """Classify one positional as ('run', RunRecord) or ('bench', dict):
    a file that parses as JSON is a BENCH snapshot, anything else a
    run's journal."""
    if os.path.isfile(ref):
        with open(ref, "rb") as fh:
            try:
                data = json.loads(fh.read())
            except (ValueError, RecursionError):
                data = None
        if data is not None:
            if not isinstance(data, dict):
                raise JournalError(f"{ref} is not a JSON object")
            for key, schema in _BENCH_SCHEMAS.items():
                if key in data:
                    if data.get("schema") != schema:
                        raise JournalError(
                            f"{ref} has bench schema "
                            f"{data.get('schema')!r}; expected {schema} "
                            f"for a file with {key!r}")
                    return "bench", data
            raise JournalError(
                f"{ref} is neither a run journal nor a recognised BENCH "
                f"file")
    path = journal_path_for(ref, root)
    return "run", RunRecord.load(path).require_grid()


# -- run mode -----------------------------------------------------------------

def compare_runs(a: RunRecord, b: RunRecord,
                 fail_above: float = DEFAULT_FAIL_ABOVE,
                 warn_above: float = DEFAULT_WARN_ABOVE,
                 resamples: int = 2000, seed: int = 1234) -> Dict[str, Any]:
    """The run-mode report dict (see the module docstring)."""
    cells_a = {cell["label"]: cell for cell in a.cells.values()}
    cells_b = {cell["label"]: cell for cell in b.cells.values()}
    notes: List[str] = []
    for side, run in (("A", a), ("B", b)):
        if run.distrusted:
            notes.append(f"{side}: distrusted {run.distrusted} journal "
                         f"line(s)"
                         + (f" ({run.problem})" if run.problem else ""))
    if a.config_digest != b.config_digest:
        notes.append("config digests differ: the runs did not simulate "
                     "the same grid; stats compared for matching labels "
                     "only")
    only_a = sorted(set(cells_a) - set(cells_b))
    only_b = sorted(set(cells_b) - set(cells_a))
    if only_a:
        notes.append(f"{len(only_a)} cell(s) only in A "
                     f"(e.g. {only_a[0]})")
    if only_b:
        notes.append(f"{len(only_b)} cell(s) only in B "
                     f"(e.g. {only_b[0]})")
    shared = [label for label in cells_a if label in cells_b]
    for side, cells in (("A", cells_a), ("B", cells_b)):
        open_cells = [label for label in shared
                      if cells[label]["status"] != "ok"]
        if open_cells:
            counts = Counter(cells[label]["status"] for label in open_cells)
            notes.append(
                f"{len(open_cells)} cell(s) not finished in {side} ("
                + ", ".join(f"{n} {status}"
                            for status, n in sorted(counts.items()))
                + f"; e.g. {open_cells[0]}): not compared")
    common = [label for label in shared
              if cells_a[label]["status"] == cells_b[label]["status"]
              == "ok"]

    # Digit-exact simulated statistics and metrics digests, where both
    # sides recorded them: any difference is drift.
    drift: List[Dict[str, Any]] = []
    unrecorded = [label for label in common
                  if (cells_a[label]["sim"] is None)
                  != (cells_b[label]["sim"] is None)]
    if unrecorded:
        notes.append(f"{len(unrecorded)} cell(s) carry simulated stats "
                     f"on one side only (e.g. {unrecorded[0]}): not "
                     f"compared")
    for label in common:
        cell_a, cell_b = cells_a[label], cells_b[label]
        sim_a, sim_b = cell_a["sim"], cell_b["sim"]
        if sim_a is not None and sim_b is not None:
            for field in sorted(set(sim_a) | set(sim_b)):
                if sim_a.get(field) != sim_b.get(field):
                    drift.append({"label": label, "field": field,
                                  "a": sim_a.get(field),
                                  "b": sim_b.get(field)})
        digests = (cell_a["metrics_digest"], cell_b["metrics_digest"])
        if None not in digests and digests[0] != digests[1]:
            drift.append({"label": label, "field": "metrics_digest",
                          "a": digests[0], "b": digests[1]})

    # Noise-aware wall-time deltas over the executed (non-cache-hit)
    # cells finished in both runs.
    ratios: List[float] = []
    by_benchmark: Dict[str, List[float]] = {}
    for label in common:
        cell_a, cell_b = cells_a[label], cells_b[label]
        wall_a, wall_b = cell_a["wall"], cell_b["wall"]
        if not wall_a or not wall_b:
            continue
        if cell_a["cache"] == "hit" or cell_b["cache"] == "hit":
            continue
        ratio = wall_b / wall_a
        ratios.append(ratio)
        by_benchmark.setdefault(cell_a["benchmark"] or "?",
                                []).append(ratio)

    def _summary(samples: List[float]) -> Optional[Dict[str, Any]]:
        if not samples:
            return None
        mean, lo, hi = bootstrap_ci(samples, resamples=resamples, seed=seed)
        return {"cells": len(samples), "ratio": round(mean, 4),
                "ci": [round(lo, 4), round(hi, 4)],
                "verdict": classify_ratio(mean, lo, hi, fail_above,
                                          warn_above)}

    wall = {
        "overall": _summary(ratios),
        "benchmarks": {name: _summary(samples)
                       for name, samples in sorted(by_benchmark.items())},
    }
    verdicts = [entry["verdict"] for entry in
                [wall["overall"], *wall["benchmarks"].values()] if entry]
    if drift:
        overall = "sim drift"
    elif any(v == "regression" for v in verdicts):
        overall = "regression"
    elif any(v == "warn" for v in verdicts):
        overall = "warn"
    else:
        overall = "ok"
    return {
        "mode": "run",
        "a": {"run_id": a.run_id, "git_sha": a.head.get("git_sha"),
              "experiment": a.head.get("experiment")},
        "b": {"run_id": b.run_id, "git_sha": b.head.get("git_sha"),
              "experiment": b.head.get("experiment")},
        "compared_cells": len(common),
        "sim_drift": drift,
        "wall": wall,
        "notes": notes,
        "verdict": overall,
    }


# -- bench mode ---------------------------------------------------------------

def _bench_timings(data: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a BENCH snapshot into ``name -> seconds``."""
    micro = data.get("microbenchmarks", {}).get("timings", {})
    return {f"micro/{name}": seconds for name, seconds in micro.items()}


def compare_bench(a: Dict[str, Any], b: Dict[str, Any],
                  fail_above: float = DEFAULT_FAIL_ABOVE,
                  warn_above: float = DEFAULT_WARN_ABOVE) -> Dict[str, Any]:
    """Bench-mode report: timing ratios (B over A) vs thresholds."""
    timings_a, timings_b = _bench_timings(a), _bench_timings(b)
    rows: List[Dict[str, Any]] = []
    notes: List[str] = []
    for name in sorted(set(timings_a) | set(timings_b)):
        if name not in timings_a or name not in timings_b:
            notes.append(f"{name} present in only one snapshot; skipped")
            continue
        ta, tb = timings_a[name], timings_b[name]
        if not ta:
            notes.append(f"{name} has a zero baseline; skipped")
            continue
        ratio = tb / ta
        if ratio >= fail_above:
            verdict = "regression"
        elif ratio >= warn_above:
            verdict = "warn"
        elif ratio <= 1.0:
            verdict = "faster"
        else:
            verdict = "ok"
        rows.append({"name": name, "a": ta, "b": tb,
                     "ratio": round(ratio, 4), "verdict": verdict})
    if any(row["verdict"] == "regression" for row in rows):
        overall = "regression"
    elif any(row["verdict"] == "warn" for row in rows):
        overall = "warn"
    else:
        overall = "ok"
    return {"mode": "bench", "timings": rows, "notes": notes,
            "verdict": overall}


# -- rendering ----------------------------------------------------------------

def render_compare(report: Dict[str, Any], ref_a: str, ref_b: str) -> str:
    lines = [f"compare — {ref_a} vs {ref_b}  [{report['mode']} mode]"]
    for note in report.get("notes", []):
        lines.append(f"  note: {note}")
    drift = report.get("sim_drift")
    if drift is not None:
        lines.append(f"  simulated stats: "
                     + (f"{len(drift)} DRIFTING field(s) — correctness "
                        f"alarm" if drift else
                        f"digit-exact over "
                        f"{report.get('compared_cells', 0)} cell(s)"))
        for row in drift[:20]:
            lines.append(f"    {row['label']}.{row['field']}: "
                         f"{row['a']!r} -> {row['b']!r}")
        if len(drift) > 20:
            lines.append(f"    ... and {len(drift) - 20} more")
    wall = report.get("wall")
    if wall and wall.get("overall"):
        overall = wall["overall"]
        lines.append(
            f"  wall time: ratio {overall['ratio']:.3f} "
            f"(95% CI [{overall['ci'][0]:.3f}, {overall['ci'][1]:.3f}] "
            f"over {overall['cells']} cells) — {overall['verdict']}")
        for name, entry in wall["benchmarks"].items():
            if entry is None:
                continue
            lines.append(
                f"    {name:<12} ratio {entry['ratio']:.3f} "
                f"CI [{entry['ci'][0]:.3f}, {entry['ci'][1]:.3f}] "
                f"({entry['cells']} cells) — {entry['verdict']}")
    for row in report.get("timings", []):
        lines.append(f"    {row['name']:<28} {row['a']:.4f}s -> "
                     f"{row['b']:.4f}s  x{row['ratio']:.3f}  "
                     f"{row['verdict']}")
    lines.append(f"  verdict: {report['verdict'].upper()}")
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------

def compare_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness compare",
        description="Diff two recorded runs: digit-exact on simulated "
                    "statistics, bootstrap-CI noise analysis on wall "
                    "times.")
    parser.add_argument("a", metavar="RUN_A",
                        help="run id, run directory, journal.jsonl, or "
                             "BENCH_*.json snapshot")
    parser.add_argument("b", metavar="RUN_B", help="same, the candidate")
    parser.add_argument("--runs-root", default=None, metavar="DIR",
                        help="runs root for bare run ids (default "
                             "results/runs or REPRO_RUNS_DIR)")
    parser.add_argument("--fail-above", type=float,
                        default=DEFAULT_FAIL_ABOVE, metavar="R",
                        help="wall ratio at/above which the verdict is a "
                             "failing regression (default 1.25)")
    parser.add_argument("--warn-above", type=float,
                        default=DEFAULT_WARN_ABOVE, metavar="R",
                        help="wall ratio at/above which to warn "
                             "(default 1.10)")
    parser.add_argument("--resamples", type=int, default=2000,
                        help="bootstrap resamples (default 2000)")
    parser.add_argument("--bootstrap-seed", type=int, default=1234,
                        help="bootstrap RNG seed (default 1234)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    args = parser.parse_args(argv)

    try:
        mode_a, data_a = _load_side(args.a, args.runs_root)
        mode_b, data_b = _load_side(args.b, args.runs_root)
        if mode_a != mode_b:
            raise JournalError(
                f"cannot compare a {mode_a} against a {mode_b}; pass "
                f"two runs or two BENCH snapshots")
        if mode_a == "bench":
            report = compare_bench(data_a, data_b,
                                   fail_above=args.fail_above,
                                   warn_above=args.warn_above)
        else:
            report = compare_runs(
                data_a, data_b, fail_above=args.fail_above,
                warn_above=args.warn_above, resamples=args.resamples,
                seed=args.bootstrap_seed)
    except JournalError as exc:
        print(f"compare: error: {exc}")
        return 2

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_compare(report, args.a, args.b))
    return 1 if report["verdict"] in FAILING_VERDICTS else 0
