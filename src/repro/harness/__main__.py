"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness figure2 [--quick] [--benchmarks a,b,c]
    python -m repro.harness figure3
    python -m repro.harness handler100
    python -m repro.harness branch-vs-exception
    python -m repro.harness cc-vs-trap
    python -m repro.harness figure4
    python -m repro.harness sensitivity
    python -m repro.harness table1
    python -m repro.harness table2
    python -m repro.harness characterize [--benchmarks a,b]
    python -m repro.harness profile [--top N] [--sort KEY] <command...>
    python -m repro.harness report (--trace-file PATH | --benchmark B
                                    --machine M [--label L])
    python -m repro.harness compare RUN_A RUN_B [--json]
    python -m repro.harness watch (RUN_ID | JOURNAL) [--follow]
    python -m repro.harness serve [--port P] [--shards N] ...
    python -m repro.harness resume RUN_ID [--jobs N] [--backend B]
    python -m repro.harness apps {miss_profile,prefetch_schedule,bypass,all}
    python -m repro.harness explain (TRACE.events.jsonl | RUN) [--json]
    python -m repro.harness spans RUN [--check] [--json]
    python -m repro.harness bench replacement [--explain DIR]

``profile`` wraps any other invocation in cProfile and prints the top-N
hot functions afterwards, e.g.::

    python -m repro.harness profile --top 30 figure2 --quick --jobs 1

``report`` renders a per-benchmark observability report — miss
breakdown, miss-latency histogram, top conflict sets, MSHR and
trap/handler accounting — from a ``repro.obs`` event trace or a live
single-cell run (see :mod:`repro.obs.report`).

``--quick`` shrinks run lengths by 4x for smoke testing; ``--json PATH``
writes any experiment's results as JSON.

Execution-engine flags (see :mod:`repro.exec`): ``--jobs N`` fans the
experiment's simulation grid across N worker processes (1 = serial,
byte-identical to the historical loops); results are memoized in the
content-addressed cache under ``REPRO_CACHE_DIR`` (default
``~/.cache/repro-exec``) unless ``--no-cache``; ``--seed N`` offsets the
workload generator seeds; ``--timeout S`` bounds each job's runtime.

``--backend {interp,vec}`` picks the simulation backend (see
:mod:`repro.vec`): ``interp`` is the original object-per-instruction
interpreter, ``vec`` replays the same stream as row tuples with flat
kernels — digit-exact statistics, about 1.8x faster on cold grids.
Both read one per-process stream cache, so each benchmark's stream is
generated once.  Without the flag the run reads ``REPRO_BACKEND``, then
defaults to ``interp``.  The backend is never part of a job's cache
key, so either backend reads and writes the same result cache.

Run settings travel one way: ``--backend``, ``--sanitize``,
``--trace-events`` and ``--trace-sample`` become fields of the engine's
:class:`repro.exec.ExecOptions`, which hands them to every cell (pool
workers included) as call arguments and records them as the run's
``settings`` in its journal header.

``--sanitize`` turns on the runtime invariant sanitizer
(:mod:`repro.sanitize`): every simulated cell runs with live checks of
the cache tag stores, MSHR lifetimes and informing-trap semantics, and a
violation fails that cell with a structured record instead of silently
wrong bars.  Results are bit-exact with and without it.

The run record (see :mod:`repro.durable` and :mod:`repro.perf`): every
engine-backed run appends a crc32-framed write-ahead journal,
``results/runs/<run_id>/journal.jsonl``, unless ``--no-manifest``
(``--manifest-dir DIR`` / ``REPRO_RUNS_DIR`` redirect the root).  It
holds the run's provenance (git sha, machine fingerprint, settings) and
each cell's start/finish/fail with its wall, backend and simulated
stats; the run prints ``run journal: <path>`` as it starts, and writes
no other file.  ``compare``, ``explain``, ``report``, ``spans``,
``watch`` and ``resume`` take a run id, a run directory or a journal
path (RUN above) and fold the journal on demand, so a killed run reads
like a finished one.  ``compare`` diffs two runs — simulated statistics
are digit-exact (drift is a correctness alarm), wall times get
bootstrap confidence intervals — or two ``BENCH_*.json`` snapshots.
``watch <run_id>`` follows the journal live (per-job state,
utilization, cache hits, throughput, ETA).  If a run is SIGKILLed
mid-grid, ``resume <run_id>``
continues it exactly where it died — journal-completed cells replay from
the result cache (never re-simulated), incomplete cells re-run with
their attempt counts carried over and the run's own settings, and the
resumed figure is digit-exact with an uninterrupted run.

Request tracing (see :mod:`repro.trace`): ``--trace-sample RATE`` samples
the engine run (default 0: off); a sampled run
and its pool workers record a span tree — run, per-job, decode, replay,
export — kept as ``span`` records in the run journal; results stay
digit-exact.
Analyze it afterwards with ``python -m repro.harness spans <run_id>``:
span tree, critical path, per-name self time, p99 anomalies and a
cross-check of the cells' walls (``--check`` makes it a CI assertion).

``--trace-events DIR`` turns on the observability layer
(:mod:`repro.obs`): every simulated cell (pool workers included)
writes a cycle-stamped ``*.events.jsonl`` trace and ``*.metrics.json``
under DIR, and each job's ``finished`` telemetry event carries its
trace path.  Results stay bit-exact; drill into a cell afterwards with
``python -m repro.harness report --trace-file DIR/<cell>.events.jsonl``.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import configs
from repro.harness import report
from repro.harness import runner

#: Experiments whose grids run through the repro.exec engine.
_ENGINE_EXPERIMENTS = frozenset([
    "figure2", "figure3", "handler100", "branch-vs-exception",
    "cc-vs-trap", "figure4", "sensitivity",
])


def _sizes(quick: bool):
    if quick:
        return dict(instructions=runner.DEFAULT_INSTRUCTIONS // 4,
                    warmup=runner.DEFAULT_WARMUP // 4)
    return dict(instructions=runner.DEFAULT_INSTRUCTIONS,
                warmup=runner.DEFAULT_WARMUP)


def _table1() -> str:
    lines = ["Table 1 — simulation parameters"]
    for key, spec in configs.MACHINES.items():
        core, mem = spec.core, spec.hierarchy
        lines += [
            f"\n[{spec.name}]",
            f"  issue width            {core.issue_width}",
            f"  functional units       {core.int_units} INT, {core.fp_units} FP, "
            f"{core.branch_units} Branch"
            + (f", {core.mem_units} Memory" if core.mem_units else ""),
            f"  reorder buffer         "
            + (str(core.rob_size) if key == "ooo" else "N/A"),
            f"  imul/idiv              {core.latencies.imul}/{core.latencies.idiv} cycles",
            f"  fdiv/fsqrt/other fp    {core.latencies.fdiv}/{core.latencies.fsqrt}/"
            f"{core.latencies.fp_other} cycles",
            f"  L1 D-cache             {mem.l1.size // 1024}KB, {mem.l1.assoc}-way",
            f"  L2 cache               {mem.l2.size // (1024 * 1024)}MB, {mem.l2.assoc}-way",
            f"  line size              {mem.l1.line_size}B",
            f"  L1->L2 / L1->mem       {mem.l1_to_l2_latency}/{mem.l1_to_mem_latency} cycles",
            f"  MSHRs / banks / fill   {mem.mshr_count} / {mem.data_banks} / {mem.fill_time}",
            f"  memory bandwidth       1 access per {mem.mem_cycles_per_access} cycles",
        ]
    return "\n".join(lines)


def _table2() -> str:
    from repro.coherence import METHOD_COSTS, TABLE2_MACHINE, AccessControlMethod
    machine = TABLE2_MACHINE
    lines = [
        "Table 2 — access-control machine and method parameters",
        f"  processors             {machine.processors}",
        f"  L1 cache / penalty     {machine.l1_size // 1024}KB / {machine.l1_miss_penalty} cycles",
        f"  L2 cache / penalty     {machine.l2_size // 1024}KB / {machine.l2_miss_penalty} cycles",
        f"  coherence unit         {machine.coherence_unit}B",
        f"  1-way message latency  {machine.message_latency} cycles",
    ]
    rc = METHOD_COSTS[AccessControlMethod.REFERENCE_CHECKING]
    ecc = METHOD_COSTS[AccessControlMethod.ECC]
    inf = METHOD_COSTS[AccessControlMethod.INFORMING]
    lines += [
        f"  reference checking     {rc.lookup}-cycle lookup, "
        f"{rc.state_change}-cycle state change",
        f"  ECC                    {ecc.read_invalid_fault}-cycle invalid read, "
        f"{ecc.write_readonly_page_fault}-cycle readonly-page write",
        f"  informing              {inf.lookup}-cycle lookup, "
        f"{inf.state_change}-cycle state change",
    ]
    return "\n".join(lines)


def _benchmark_names(experiment: str):
    """The names ``--benchmarks`` accepts for *experiment*, or None when
    it runs a fixed set."""
    if experiment in ("figure2", "characterize"):
        from repro.workloads import SPEC92
        return SPEC92
    if experiment in ("figure4", "sensitivity"):
        from repro.workloads.parallel import PARALLEL_KERNELS
        return PARALLEL_KERNELS
    return None


def _build_engine(args, argv=None):
    """One JobRunner per CLI invocation, wired from the engine flags."""
    from repro.exec import ExecOptions, JobRunner, JournalAnnouncer

    manifest_dir = None
    if not args.no_manifest:
        from repro.perf.manifest import runs_root
        manifest_dir = runs_root(args.manifest_dir)
    options = ExecOptions(
        jobs=args.jobs,
        cache=not args.no_cache,
        timeout=args.timeout,
        progress=args.progress,
        manifest_dir=manifest_dir,
        backend=args.backend,
        sanitize=args.sanitize,
        trace_events=args.trace_events,
        trace_sample=args.trace_sample,
        run_meta={"experiment": args.experiment,
                  "argv": list(argv) if argv is not None else None,
                  "seed": args.seed,
                  "policy": getattr(args, "policy", "lru")},
    )
    return JobRunner(options, sinks=([JournalAnnouncer(manifest_dir)]
                                     if manifest_dir else []))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.harness",
                                     description=__doc__)
    parser.add_argument("experiment", choices=[
        "figure2", "figure3", "handler100", "branch-vs-exception",
        "cc-vs-trap", "figure4", "sensitivity", "table1", "table2",
        "characterize"])
    parser.add_argument("--quick", action="store_true",
                        help="4x shorter runs for smoke testing")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset: SPEC92 "
                             "names for figure2/characterize, "
                             "parallel-kernel names for "
                             "figure4/sensitivity")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write results as JSON")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed offset (0 = the default "
                             "seed path, unchanged)")
    from repro.memory import available_policies
    parser.add_argument("--policy", choices=available_policies(),
                        default="lru",
                        help="L1/L2 replacement policy for every cell "
                             "(repro.memory.replacement registry; "
                             "default lru, the paper's machines). "
                             "Non-lru policies get their own cache "
                             "keys; every policy runs on either "
                             "backend")
    engine_group = parser.add_argument_group("execution engine")
    engine_group.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="worker processes for the simulation "
                                   "grid (default 1: serial)")
    engine_group.add_argument("--no-cache", action="store_true",
                              help="disable the content-addressed result "
                                   "cache")
    engine_group.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-job timeout (parallel mode "
                                   "preempts; serial mode detects "
                                   "post-hoc)")
    engine_group.add_argument("--progress", action="store_true",
                              help="live progress meter on stderr")
    engine_group.add_argument("--backend", choices=("interp", "vec"),
                              default=None,
                              help="simulation backend (repro.vec): "
                                   "'interp' object interpreters, 'vec' "
                                   "flat row replay — digit-exact, "
                                   "faster (default: REPRO_BACKEND, "
                                   "then interp)")
    engine_group.add_argument("--sanitize", action="store_true",
                              help="run with the runtime invariant "
                                   "sanitizer (repro.sanitize) attached "
                                   "to every simulated cell, pool workers "
                                   "included")
    engine_group.add_argument("--trace-sample", type=float, default=0.0,
                              metavar="RATE",
                              help="repro.trace sampling rate in [0,1]: "
                                   "a sampled run keeps its span tree in "
                                   "its run journal (default 0: off)")
    engine_group.add_argument("--trace-events", default=None, metavar="DIR",
                              help="attach the repro.obs observer to every "
                                   "simulated cell and write per-cell "
                                   "event traces + metrics under DIR")
    engine_group.add_argument("--manifest-dir", default=None, metavar="DIR",
                              help="root for run journals (default "
                                   "results/runs or REPRO_RUNS_DIR)")
    engine_group.add_argument("--no-manifest", action="store_true",
                              help="do not write a run journal")
    args = parser.parse_args(argv)
    sizes = _sizes(args.quick)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if not 0.0 <= args.trace_sample <= 1.0:
        parser.error("--trace-sample must be in [0, 1]")

    # Seed only affects the SPEC92 workload generators.
    if args.seed and args.experiment in ("table1", "table2", "figure4",
                                         "sensitivity"):
        parser.error(f"--seed does not apply to {args.experiment}")
    # Policy only affects the bar-grid experiments' cache hierarchies.
    if args.policy != "lru" and args.experiment in (
            "table1", "table2", "figure4", "sensitivity", "characterize"):
        parser.error(f"--policy does not apply to {args.experiment}")
    if args.benchmarks is not None:
        valid = _benchmark_names(args.experiment)
        if valid is None:
            parser.error(f"--benchmarks does not apply to {args.experiment}")
        unknown = [name for name in args.benchmarks.split(",")
                   if name not in valid]
        if unknown:
            parser.error(f"unknown --benchmarks name(s) "
                         f"{', '.join(map(repr, unknown))} for "
                         f"{args.experiment}; choose from "
                         f"{', '.join(sorted(valid))}")
    engine = (_build_engine(args, argv=argv)
              if args.experiment in _ENGINE_EXPERIMENTS else None)

    def maybe_export(payload: str) -> None:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"results written to {args.json}")

    if args.experiment == "table1":
        from repro.harness import export
        print(_table1())
        maybe_export(export.table1_to_json())
    elif args.experiment == "table2":
        from repro.harness import export
        print(_table2())
        maybe_export(export.table2_to_json())
    elif args.experiment == "figure2":
        from repro.harness import export
        benchmarks = args.benchmarks.split(",") if args.benchmarks else None
        result = runner.figure2(benchmarks=benchmarks, seed=args.seed,
                                engine=engine, policy=args.policy, **sizes)
        print(report.render_figure(result, "Figure 2 — generic miss handlers"))
        for note in report.summarize_claims(result):
            print(note)
        maybe_export(export.figure_to_json(result))
    elif args.experiment == "figure3":
        from repro.harness import export
        result = runner.figure3(seed=args.seed, engine=engine,
                                policy=args.policy, **sizes)
        print(report.render_figure(result, "Figure 3 — su2cor"))
        maybe_export(export.figure_to_json(result))
    elif args.experiment == "handler100":
        from repro.harness import export
        result = runner.handler100(seed=args.seed, engine=engine,
                                   policy=args.policy, **sizes)
        print(report.render_figure(
            result, "100-instruction handlers (paper: compress ~6x, "
                    "su2cor ~7x, ora ~2%)"))
        maybe_export(export.figure_to_json(result))
    elif args.experiment == "branch-vs-exception":
        from repro.harness import export
        result = runner.branch_vs_exception(seed=args.seed, engine=engine,
                                            policy=args.policy, **sizes)
        print(report.render_figure(
            result, "Branch-like vs exception-like traps "
                    "(paper: +9%/+7% on compress)"))
        maybe_export(export.figure_to_json(result))
    elif args.experiment == "cc-vs-trap":
        from repro.harness import export
        result = runner.cc_vs_trap(seed=args.seed, engine=engine,
                                   policy=args.policy, **sizes)
        print(report.render_figure(
            result, "Condition-code check vs per-reference MHAR set"))
        maybe_export(export.figure_to_json(result))
    elif args.experiment == "figure4":
        from repro.harness import coherence_exp, export
        workloads = args.benchmarks.split(",") if args.benchmarks else None
        result = coherence_exp.figure4(workloads=workloads, engine=engine)
        print(coherence_exp.render_figure4(result))
        maybe_export(export.figure4_to_json(result))
    elif args.experiment == "characterize":
        from repro.harness import export
        from repro.workloads import SPEC92, spec92_workload
        from repro.workloads.characterize import characterize, render_profile
        names = (args.benchmarks.split(",") if args.benchmarks
                 else sorted(SPEC92))
        limit = 10_000 if args.quick else 50_000
        profiles = {}
        for name in names:
            workload = spec92_workload(name, seed_offset=args.seed)
            profile = characterize(workload.stream(limit), limit=limit)
            profiles[name] = profile
            print(render_profile(name, profile))
            print()
        maybe_export(export.profiles_to_json(profiles))
    elif args.experiment == "sensitivity":
        from repro.harness import coherence_exp, export
        workloads = args.benchmarks.split(",") if args.benchmarks else None
        points = coherence_exp.sensitivity(workloads=workloads,
                                           engine=engine)
        print("Sensitivity: comparator-to-informing ratios "
              "(higher = informing relatively better)")
        print(f"{'msg latency':>12} {'L1 size':>9} {'ref-check':>10} {'ECC':>8}")
        for point in points:
            print(f"{point.message_latency:>12} {point.l1_size // 1024:>8}K "
                  f"{point.reference_checking:>10.3f} {point.ecc:>8.3f}")
        maybe_export(export.sensitivity_to_json(points))

    if engine is not None:
        print(engine.stats.summary())
    return 0


def profile_main(argv) -> int:
    """``profile`` subcommand: cProfile any other harness invocation.

    Everything not recognised here is forwarded to :func:`main`, so any
    experiment and engine flag combination can be profiled.  Profiled runs
    are forced to ``--no-manifest`` (no run journal) — their walls
    include profiler overhead.  Use ``--jobs 1`` (the default) when profiling: worker
    subprocesses escape the profiler.
    """
    import cProfile
    import pstats

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness profile",
        description="Run a harness command under cProfile and print the "
                    "hottest functions.")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="functions to print (default 25)")
    parser.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                        default="tottime",
                        help="pstats sort key (default tottime)")
    parser.add_argument("--dump", default=None, metavar="PATH",
                        help="also write raw pstats data for snakeviz "
                             "and friends")
    args, rest = parser.parse_known_args(argv)
    if not rest:
        parser.error("expected a harness command to profile, e.g. "
                     "'profile figure2 --quick'")
    if "--no-manifest" not in rest:
        # Profiled walls include profiler overhead; keep them out of the
        # cross-run observatory.
        rest.append("--no-manifest")

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rc = main(rest)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats(args.sort)
        print(f"\n--- cProfile: top {args.top} by {args.sort} ---")
        stats.print_stats(args.top)
        if args.dump:
            stats.dump_stats(args.dump)
            print(f"raw profile written to {args.dump}")
    return rc


def dispatch(argv=None) -> int:
    """Route ``profile``/``report``/``compare``/``watch``/``apps``/
    ``explain``/``spans``/``bench`` to their wrappers, the rest to
    :func:`main`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.obs.report import report_main
        return report_main(argv[1:])
    if argv and argv[0] == "compare":
        from repro.perf.compare import compare_main
        return compare_main(argv[1:])
    if argv and argv[0] == "watch":
        from repro.perf.watch import watch_main
        return watch_main(argv[1:])
    if argv and argv[0] == "apps":
        from repro.harness.apps_cli import apps_main
        return apps_main(argv[1:])
    if argv and argv[0] == "explain":
        from repro.harness.explain import explain_main
        return explain_main(argv[1:])
    if argv and argv[0] == "spans":
        from repro.harness.spans_cli import spans_main
        return spans_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.harness.replacement import bench_main
        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "resume":
        from repro.durable.resume import resume_main
        return resume_main(argv[1:])
    return main(argv)


if __name__ == "__main__":
    sys.exit(dispatch())
