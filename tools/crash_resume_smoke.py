"""CI smoke test for kill-and-resume, out of process.

Launches ``python -m repro.harness figure2 --quick`` as a real
subprocess with a run journal, its cells traced (``--trace-sample 1.0
--trace-events``), SIGKILLs it partway through the grid (the honest
crash — no cleanup handlers run), then:

1. ``python -m repro.harness resume <run_id>`` must finish the grid
   with exit code 0;
2. the resumed results must be digit-exact against
   ``results/golden/figure2_quick.json`` — every field of every cell;
3. zero journal-completed cells may re-execute: the resumed run's
   record, folded from its journal, must show ``replayed`` equal to the
   killed run's completed count and ``executed`` covering exactly the
   remainder;
4. the killed run reads like a finished one: ``harness watch``,
   ``explain`` and ``spans`` exit 0 on it, and ``harness compare KILLED
   RESUMED`` exits 0, digit-exact over the cells finished on both sides.

The work directory (result cache, journals, traces) is removed when
every check passes; a failed run keeps it and prints its path.

Usage::

    PYTHONPATH=src python tools/crash_resume_smoke.py [--backend vec]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.durable import read_records
from repro.durable.resume import load_run_state
from repro.perf import RunRecord

GOLDEN = Path(__file__).resolve().parent.parent / "results" / "golden" / \
    "figure2_quick.json"

#: SIGKILL once this many cells are journaled as finished.
KILL_AFTER_FINISHES = 8


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def find_journal(runs_root: Path, deadline: float) -> Path:
    while time.monotonic() < deadline:
        journals = list(runs_root.glob("*/journal.jsonl"))
        if journals:
            return journals[0]
        time.sleep(0.05)
    fail(f"no journal appeared under {runs_root}")


def count_finishes(journal: Path) -> int:
    records, _, _ = read_records(str(journal))
    return sum(1 for r in records if r.get("rec") == "job_finish")


def smoke(workdir: Path, args: argparse.Namespace) -> None:
    runs_root = workdir / "runs"
    env = dict(os.environ, REPRO_CACHE_DIR=str(workdir / "cache"))
    command = [sys.executable, "-m", "repro.harness", "figure2", "--quick",
               "--jobs", str(args.jobs),
               "--manifest-dir", str(runs_root),
               "--trace-sample", "1.0",
               "--trace-events", str(workdir / "traces"),
               "--backend", args.backend]
    print(f"launching: {' '.join(command[2:])}")
    # Own session so the SIGKILL takes the pool workers too; an orphaned
    # worker would otherwise keep running (and keep CI pipes open).
    process = subprocess.Popen(command, env=env,
                               stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        journal = find_journal(runs_root, time.monotonic() + 60)
        run_id = journal.parent.name
        print(f"journal up: {run_id}")

        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if process.poll() is not None:
                fail(f"run finished (code {process.returncode}) before "
                     f"the kill; raise the grid size or lower "
                     f"KILL_AFTER_FINISHES")
            if count_finishes(journal) >= KILL_AFTER_FINISHES:
                break
            time.sleep(0.05)
        else:
            fail("grid never reached the kill threshold")
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=10)

    state = load_run_state(run_id, str(runs_root))
    completed = sum(1 for cell in state.cells.values()
                    if cell["status"] == "ok")
    total = len(state.grid)
    if completed == total:
        fail("nothing left incomplete after the kill; smoke is vacuous")
    print(f"SIGKILLed mid-grid: {completed}/{total} cells journaled "
          f"complete, {total - completed} to go "
          f"(journal lines distrusted: {state.distrusted})")

    resumed_json = workdir / "resumed.json"
    resume = subprocess.run(
        [sys.executable, "-m", "repro.harness", "resume", run_id,
         "--runs-root", str(runs_root), "--jobs", str(args.jobs),
         "--backend", args.backend, "--quiet",
         "--json", str(resumed_json)],
        env=env, capture_output=True, text=True, timeout=1800)
    sys.stdout.write(resume.stdout)
    if resume.returncode != 0:
        sys.stderr.write(resume.stderr)
        fail(f"resume exited {resume.returncode}")

    # 2. Digit-exact against the golden figure.
    golden = json.loads(GOLDEN.read_text())
    resumed = json.loads(resumed_json.read_text())
    if resumed["name"] != golden["name"]:
        fail(f"figure name drifted: {resumed['name']}")
    if len(resumed["bars"]) != len(golden["bars"]):
        fail(f"cell count {len(resumed['bars'])} != {len(golden['bars'])}")
    for index, (got, want) in enumerate(zip(resumed["bars"],
                                            golden["bars"])):
        if got != want:
            fail(f"cell {index} "
                 f"({want['benchmark']}/{want['machine']}/{want['label']}) "
                 f"differs from golden after resume")
    print(f"digit-exact vs golden OK ({len(golden['bars'])} cells, "
          f"backend={args.backend})")

    # 3. Zero completed cells re-executed.
    resumed_journal = next(
        (line.split(": ", 1)[1] for line in resume.stdout.splitlines()
         if line.startswith("run journal: ")), None)
    if resumed_journal is None:
        fail("resume announced no run journal")
    resumed_run = RunRecord.load(resumed_journal)
    if resumed_run.head.get("resumed_from") != run_id:
        fail(f"{resumed_journal} does not claim resumed_from the killed "
             f"run")
    stats = resumed_run.stats
    if stats["replayed"] != completed:
        fail(f"replayed {stats['replayed']} != journal-completed "
             f"{completed}: a completed cell re-executed (or got lost)")
    if stats["executed"] + stats["cache_hits"] != total - completed:
        fail(f"executed {stats['executed']} + cache_hits "
             f"{stats['cache_hits']} != {total - completed} incomplete "
             f"cells")
    print(f"no re-execution of completed cells OK "
          f"(replayed={stats['replayed']}, executed={stats['executed']}, "
          f"cache_hits={stats['cache_hits']})")

    # 4. The killed run reads like a finished one.
    harness = [sys.executable, "-m", "repro.harness"]
    for reader in ("watch", "explain", "spans"):
        read = subprocess.run(harness + [reader, run_id],
                              env=dict(env, REPRO_RUNS_DIR=str(runs_root)),
                              capture_output=True, text=True, timeout=300)
        if read.returncode != 0:
            fail(f"{reader} on the killed run exited {read.returncode}:\n"
                 f"{read.stdout[-2000:]}{read.stderr[-2000:]}")
    compare = subprocess.run(
        harness + ["compare", run_id, resumed_run.run_id,
                   "--runs-root", str(runs_root), "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    if compare.returncode != 0:
        fail(f"compare KILLED RESUMED exited {compare.returncode}:\n"
             f"{compare.stdout}{compare.stderr}")
    report = json.loads(compare.stdout)
    if report["compared_cells"] != completed or report["sim_drift"]:
        fail(f"compare KILLED RESUMED compared "
             f"{report['compared_cells']} cell(s) (want {completed}) "
             f"with drift {report['sim_drift']}")
    print(f"killed run reads OK (watch, explain, spans; compare "
          f"digit-exact over {completed} cells finished on both sides)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("interp", "vec"),
                        default="interp")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-"))
    try:
        smoke(workdir, args)
    except BaseException:
        print(f"work directory kept: {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir)
    print("crash-resume smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
