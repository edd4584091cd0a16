"""``harness apps``: run the informing-op application experiments.

Front end for :mod:`repro.apps.experiments`.  Each experiment is one
exec-engine job (``SimJob.app``), so results are content-addressed and
cached exactly like figure cells — re-running an experiment with the
same knobs is a cache hit, and a policy sweep gets per-policy keys::

    python -m repro.harness apps miss_profile --benchmark compress
    python -m repro.harness apps all --quick --policy rrip --json out.json

``all`` runs every registered experiment for the chosen benchmark in
one engine grid.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List


def _render_result(result: Dict[str, Any]) -> str:
    """Generic key/value rendering; the hottest-pcs table gets rows."""
    name = result.get("experiment", "?")
    lines = [f"apps {name} — {result.get('benchmark')} on "
             f"{result.get('machine')} (policy {result.get('policy')})"]
    simple = {k: v for k, v in result.items()
              if k not in ("experiment", "benchmark", "machine", "policy",
                           "hottest")}
    width = max(len(k) for k in simple) if simple else 0
    for key in sorted(simple):
        lines.append(f"  {key:<{width}}  {simple[key]}")
    for row in result.get("hottest", []):
        lines.append(f"    {row['pc']:>12}  {row['misses']:>6} misses  "
                     f"{100 * row['miss_rate']:5.1f}% miss rate")
    return "\n".join(lines)


def apps_main(argv=None) -> int:
    from repro.apps.experiments import APP_EXPERIMENTS, DEFAULT_MACHINE
    from repro.harness.configs import MACHINES
    from repro.harness.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
    from repro.memory import available_policies

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness apps",
        description="Run the paper-§4.1 application experiments "
                    "(repro.apps.experiments) through the exec engine.")
    parser.add_argument("experiment",
                        choices=sorted(APP_EXPERIMENTS) + ["all"],
                        help="registered experiment, or 'all'")
    parser.add_argument("--benchmark", default="compress",
                        help="SPEC92 benchmark (default compress)")
    parser.add_argument("--machine", default=DEFAULT_MACHINE,
                        choices=sorted(MACHINES),
                        help=f"machine key (default {DEFAULT_MACHINE})")
    parser.add_argument("--policy", choices=available_policies(),
                        default="lru",
                        help="replacement policy under the experiment")
    parser.add_argument("--quick", action="store_true",
                        help="4x shorter runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed offset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--progress", action="store_true")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write results as JSON")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    from repro.exec import ExecOptions, JobRunner, SimJob
    from repro.workloads import SPEC92

    if args.benchmark not in SPEC92:
        parser.error(f"unknown benchmark {args.benchmark!r}; choose from "
                     f"{sorted(SPEC92)}")
    divisor = 4 if args.quick else 1
    names = (sorted(APP_EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    jobs = [
        SimJob.app(experiment=name, benchmark=args.benchmark,
                   machine=args.machine,
                   instructions=DEFAULT_INSTRUCTIONS // divisor,
                   warmup=DEFAULT_WARMUP // divisor, seed=args.seed,
                   policy=args.policy)
        for name in names
    ]
    engine = JobRunner(ExecOptions(
        jobs=args.jobs, cache=not args.no_cache, progress=args.progress,
        run_meta={"experiment": f"apps-{args.experiment}",
                  "seed": args.seed, "policy": args.policy}))
    results: List[Dict[str, Any]] = engine.run(jobs)
    for result in results:
        if result is not None:
            print(_render_result(result))
            print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results if len(results) > 1 else results[0], fh,
                      indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print(engine.stats.summary(), file=sys.stderr)
    return 0
