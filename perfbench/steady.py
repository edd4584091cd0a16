"""Steadiness check: run one workload at several seeds and report, per
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json.

::

    python3 perfbench/steady.py --workload fig2-vec [--runs 10]
        [--first-seed 1] [--seconds S]

A metric is steady when its spread stays below a third of its bound
(``setup_s`` is exempt from the spread rule: it is checked by its
median only).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=root, stdout=subprocess.PIPE, text=True,
            check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    worst = 0.0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = quartile_spread(values[name])
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:14s} median {statistics.median(values[name]):12.6g} "
              f"spread {spread:7.2%} bound {bound:.0%} "
              f"({spread / bound:.2f} of bound)")
    print(f"worst spread / bound (setup_s exempt): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
