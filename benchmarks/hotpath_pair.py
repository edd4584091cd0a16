"""Same-sitting hotpath pair: one tree's hot paths against another's.

::

    python benchmarks/hotpath_pair.py BASE_SRC CHANGE_SRC \
        --record-to base.json change.json
    PYTHONPATH=src python -m repro.harness compare base.json change.json \
        --fail-above 1.25 --warn-above 1.10

Starts one worker process per tree, with ``PYTHONPATH`` set to that
tree's ``src``; both run the scenarios of this checkout's
``test_hotpath_micro.py``.  After one untimed call of every scenario,
the two workers take turns: in each of :data:`ROUNDS` rounds, every
scenario gets one sample on each tree, back to back, the tree that
goes first alternating from round to round.  A sample repeats the
scenario until :data:`SAMPLE_SECONDS` have passed and is its seconds
per call.  Each side's timing of a scenario is its median over the
rounds, written as a BENCH snapshot that ``harness compare`` reads.

Samples a fraction of a second apart see the same host: on a shared
2-vCPU VM the speed of one scenario moves by about 25% from one process
to the next, which a comparison of whole records, three per tree,
could not tell from a 30% slowdown (DESIGN.md §6).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: Rounds of samples per scenario and tree, and the seconds a sample
#: repeats its scenario for.
ROUNDS = 9
SAMPLE_SECONDS = 0.2


def sample(func) -> float:
    """Seconds per call of *func*, over calls filling SAMPLE_SECONDS."""
    calls = 0
    start = time.perf_counter()
    while True:
        func()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SAMPLE_SECONDS:
            return elapsed / calls


def worker() -> int:
    """Answer each scenario name read from stdin with one sample."""
    sys.path.insert(0, HERE)
    from test_hotpath_micro import SCENARIOS

    print(" ".join(sorted(SCENARIOS)), flush=True)
    for line in sys.stdin:
        name = line.strip()
        if name.startswith("warm "):
            SCENARIOS[name[5:]]()
            print("ok", flush=True)
        else:
            print(sample(SCENARIOS[name]), flush=True)
    return 0


class Worker:
    """A worker process timing the scenarios against one tree's src."""

    def __init__(self, src: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        #: The scenarios it runs, by name.
        self.names = self._answer("start").split()

    def ask(self, request: str) -> str:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self._answer(request)

    def _answer(self, request: str) -> str:
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"worker on {request!r} exited "
                               f"{self.proc.wait()}")
        return answer.strip()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(30)


def pair(base_src: str, change_src: str) -> List[Dict[str, float]]:
    """Per-scenario median seconds per call: ``[base, change]``."""
    # One CPU for both workers (they inherit it), so neither side runs
    # on a core the other never sees.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned
    workers: List[Worker] = []
    try:
        for src in (base_src, change_src):
            workers.append(Worker(src))
        names = workers[0].names
        for name in names:
            for side in workers:
                side.ask(f"warm {name}")
        samples = [{name: [] for name in names} for _ in workers]
        for round_no in range(ROUNDS):
            order = (0, 1) if round_no % 2 == 0 else (1, 0)
            for name in names:
                for index in order:
                    samples[index][name].append(
                        float(workers[index].ask(name)))
    finally:
        for side in workers:
            side.close()
    return [{name: round(statistics.median(values), 6)
             for name, values in side.items()} for side in samples]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="same-sitting hotpath timings of two source trees")
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("--record-to", nargs=2, required=True,
                        metavar=("BASE_JSON", "CHANGE_JSON"))
    args = parser.parse_args(argv)
    for timings, path in zip(pair(args.base_src, args.change_src),
                             args.record_to):
        with open(path, "w") as fh:
            json.dump({"schema": 1, "microbenchmarks": {
                "unit": f"seconds per call (median over {ROUNDS} "
                        f"interleaved samples of >= {SAMPLE_SECONDS} s)",
                "timings": timings}}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(worker() if sys.argv[1:] == ["--worker"] else main())
