"""Repository benchmark: one workload, one seed, one run.

::

    python3 perfbench/run.py --workload fig2-interp|fig2-vec|serve-mix
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It prints each metric by name with
its unit, the raw host time beside every normalized one and the sample
counts, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md in this directory for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("fig2-interp", "fig2-vec", "serve-mix")
#: Working files inside the checkout; removed at the end of every run.
WORK_DIR = ".perfbench_work"
REQUIRED = (os.path.join("src", "repro", "__init__.py"),
            os.path.join("results", "golden", "figure2_quick.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    missing = [p for p in REQUIRED
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a checkout of the program (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    # One CPU for the whole run: the program, the client and the
    # reference loop then always share the core they are timed on, and
    # the scheduler never migrates them mid-measurement.  Every workload
    # runs one operation at a time, so the program loses no parallelism.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned
    # In-process checks must see the program's defaults, like its
    # child processes do.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(root, "src"))

    from common import Ctx
    from report import END_TO_END, PER_LAYER, Report

    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        ctx = Ctx(root=root, work=work, seed=args.seed,
                  seconds=args.seconds)
        report = Report(args.workload, args.seed)
        if args.workload == "serve-mix":
            import serveload as load
            backend = None
        else:
            import gridload as load
            backend = "vec" if args.workload == "fig2-vec" else None
        (load.traced if args.trace else load.timed)(ctx, report, backend)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's directory is still there
    names = PER_LAYER if args.trace else END_TO_END
    for name, unit in names:
        if name not in report.metrics:  # a layer this workload never crosses
            report.value(name, unit, 0)
    for line in report.lines(names):
        print(line)
    print(report.result_line(names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
