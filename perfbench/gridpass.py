"""One grid process: a cold Figure 2 pass with cache hits between cells.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src`` and
the backend chosen through ``REPRO_BACKEND``::

    python3 perfbench/gridpass.py --work DIR --seed N --out FILE [--traced]
    python3 perfbench/gridpass.py --work DIR --setup-only
    python3 perfbench/gridpass.py --seed N --out FILE --profile B1,B2

The cold pass is ``runner.figure2(...)`` over a fresh result cache with
the engine journal and manifest in *DIR*, serial, exactly as
``python -m repro.harness figure2 --quick`` runs it by default.  A
telemetry sink passed through ``JobRunner``'s ``sinks=`` times every
cell.  After each cell it reruns a sample of the finished cells through
a fresh runner over the warm cache (every one a hit), then runs the
host reference loop, when no program code runs.  Neither counts in the
grid wall.

``--setup-only`` imports the harness and backend modules, builds the
``JobRunner``, prints ``READY <import seconds>`` and exits: one set-up
sample.  ``--traced`` wraps the layer entry points (``layers.py``);
``--profile`` runs only the cProfile pass over the named benchmarks'
columns, in a process of its own so no wrapper skews it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostref import LOCAL_WINDOW, HostRef  # noqa: E402

#: Cache hits served after each cold cell: 130 x 50 keeps 65 samples
#: beyond the hit p99.
WARM_PER_CELL = 50


def _import_program():
    """Import what a grid needs before its first cell; return seconds."""
    start = time.perf_counter()
    import repro.exec  # noqa: F401
    import repro.harness.runner  # noqa: F401
    if os.environ.get("REPRO_BACKEND") == "vec":
        try:
            import repro.vec.runner  # noqa: F401  (imports numpy)
        except ImportError:
            pass  # no separate vec backend: the grid runs the default one
    return time.perf_counter() - start


def _engine(work: str, seed: int, sinks):
    from repro.exec import ExecOptions, JobRunner

    return JobRunner(ExecOptions(
        jobs=1, cache=True, cache_dir=os.path.join(work, "cache"),
        manifest_dir=os.path.join(work, "runs"),
        run_meta={"experiment": "figure2",
                  "argv": ["figure2", "--quick", "--seed", str(seed)],
                  "seed": seed, "policy": "lru"}), sinks=sinks)


class ColdSink:
    """Times the cold pass from the engine's own events.

    A cell is timed from ``started`` to ``finished``: simulation and
    cache store.  After each cell, *probe* reruns cached cells and then
    the reference loop runs; the wall is cut into stretches that each
    end at a cell, and every time is tagged with the index of the
    reference sample taken right after it, which normalizes it.
    """

    def __init__(self, ref: HostRef, probe) -> None:
        self.ref = ref
        self.probe = probe
        self.mark = time.perf_counter()
        self.ref_spent = 0.0
        self.stretches = []
        self.miss = []
        self.failed = 0
        self.retries = 0
        self.backends = {}
        self._started = None

    def emit(self, event) -> None:
        now = time.perf_counter()
        kind = event.event
        if kind == "started":
            self._started = now
        elif kind == "finished":
            at = self.ref.last + 1
            self.miss.append((now - (self._started or now), at))
            self.stretches.append((now - self.mark, at))
            backend = getattr(event, "backend", None) or "default"
            self.backends[backend] = self.backends.get(backend, 0) + 1
            self.probe(event.key)
            self.ref_spent += self.ref.sample()
            self.mark = time.perf_counter()
        elif kind == "failed":
            self.failed += 1
        elif kind == "retried":
            self.retries += 1


class WarmProbe:
    """Cache hits, spread over the whole cold pass.

    After each cold cell, :data:`WARM_PER_CELL` cells drawn (seeded)
    from those finished so far are rerun through a fresh ``JobRunner``
    over the warm cache, as a warm ``figure2`` rerun would serve them.
    Each hit is timed from ``queued`` to ``finished``: the cache probe.
    A traced run records these reruns' layers in the ``warm`` bucket.
    """

    def __init__(self, ref: HostRef, engine, jobs, seed: int,
                 trace=None) -> None:
        import random

        self.ref = ref
        self.trace = trace
        self.engine = engine
        self.by_key = {job.cache_key(): job for job in jobs}
        self.done = []
        self.rng = random.Random(f"perfbench:warm:{seed}")
        self.hit = []
        #: The first warm result of each cell; later ones must equal it.
        self.first = {}
        self.mismatches = 0
        self.failed = 0
        self.journal_errors = 0
        self._queued = None

    def __call__(self, key: str) -> None:
        if key in self.by_key:
            self.done.append(self.by_key[key])
        if not self.done:
            return
        jobs = self.rng.choices(self.done, k=WARM_PER_CELL)
        engine = self.engine([self])
        if self.trace is not None:
            self.trace.use("warm")
        try:
            results = engine.run(jobs)
        finally:
            if self.trace is not None:
                self.trace.use("main")
        self.journal_errors += engine.stats.journal_errors
        for job, result in zip(jobs, results):
            cell = (job.benchmark, job.machine, job.config_dict()["label"])
            if self.first.setdefault(cell, result) != result:
                self.mismatches += 1

    def emit(self, event) -> None:
        now = time.perf_counter()
        kind = event.event
        if kind == "queued":
            self._queued = now
        elif kind == "finished":
            if event.cache == "hit":
                self.hit.append((now - self._queued, self.ref.last + 1))
            else:
                self.failed += 1  # a warm rerun must not simulate
        elif kind == "failed":
            self.failed += 1


def _grid_jobs(seed: int):
    """The Figure 2 cells as ``runner.figure2`` submits them."""
    from cells import FIG2_LABELS, FIG2_MACHINES, QUICK_INSTRUCTIONS, \
        QUICK_WARMUP
    from repro.exec import SimJob
    from repro.workloads import FIGURE2_BENCHMARKS

    return [SimJob.bar(benchmark=name, machine=machine, label=label,
                       instructions=QUICK_INSTRUCTIONS, warmup=QUICK_WARMUP,
                       seed=seed)
            for name in FIGURE2_BENCHMARKS
            for machine in FIG2_MACHINES
            for label in FIG2_LABELS]


def _rows(figure):
    from dataclasses import asdict

    return [asdict(bar) for bar in figure.bars]


def _profile_columns(benchmarks, seed):
    """cProfile every cell of the named benchmarks' Figure 2 columns in
    this fresh process (so the decode cache starts empty); return self
    seconds per layer."""
    import cProfile
    import pstats

    from layers import module_split
    from repro.exec.job import execute_job

    profiler = cProfile.Profile()
    for job in _grid_jobs(seed):
        if job.benchmark in benchmarks:
            profiler.enable()
            execute_job(job)
            profiler.disable()
    return module_split(pstats.Stats(profiler))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--profile", default="")
    args = parser.parse_args(argv)

    import_s = _import_program()
    if args.setup_only:
        _engine(args.work, args.seed, [])
        print(f"READY {import_s!r}", flush=True)
        return 0
    if args.profile:
        split = _profile_columns(args.profile.split(","), args.seed)
        with open(args.out, "w") as fh:
            json.dump({"profile": split}, fh)
        return 0
    from repro.harness import runner

    trace = None
    if args.traced:
        from layers import LayerTrace, install_program_layers

        trace = LayerTrace()
        install_program_layers(
            trace, vec=os.environ.get("REPRO_BACKEND") == "vec")
    ref = HostRef()

    def engine(sinks):
        return _engine(args.work, args.seed, sinks)

    probe = WarmProbe(ref, engine, _grid_jobs(args.seed), args.seed, trace)
    sink = ColdSink(ref, probe)
    cold = engine([sink])

    from cells import QUICK_INSTRUCTIONS, QUICK_WARMUP

    ref.sample(LOCAL_WINDOW)
    sink.mark = time.perf_counter()
    figure = runner.figure2(instructions=QUICK_INSTRUCTIONS,
                            warmup=QUICK_WARMUP, seed=args.seed,
                            engine=cold)
    sink.stretches.append((time.perf_counter() - sink.mark, ref.last))
    ref.sample(LOCAL_WINDOW)
    rows = _rows(figure)
    by_cell = {(r["benchmark"], r["machine"], r["label"]): r for r in rows}
    warm_mismatches = probe.mismatches + sum(
        1 for cell, result in probe.first.items()
        if result is None or cell not in by_cell
        or dict(result, normalized=by_cell[cell]["normalized"])
        != by_cell[cell])

    def normalized(pairs):
        return [(raw, ref.factor_at(index)) for raw, index in pairs]

    stretches = normalized(sink.stretches)
    grid_raw = sum(raw for raw, _ in stretches)
    out = {
        "import_s": import_s,
        "grid_raw_s": grid_raw,
        "factor": sum(r * f for r, f in stretches) / grid_raw,
        "rows": rows,
        "miss": normalized(sink.miss),
        "hit": normalized(probe.hit),
        "warm_mismatches": warm_mismatches,
        "failed": sink.failed + probe.failed,
        "retries": sink.retries,
        "backends": sink.backends,
        "journal_errors": cold.stats.journal_errors + probe.journal_errors,
        "ref_ms": ref.samples_ms,
        "sink_ref_s": sink.ref_spent,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace is not None:
        out["layers"] = trace.snapshot()
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
