"""Experiment runners for the paper's figures and quoted results.

Each function regenerates one artifact:

* :func:`figure2` — normalized execution time with 1/10-instruction generic
  miss handlers (single and unique) over the thirteen Figure 2 benchmarks.
* :func:`figure3` — the su2cor blow-up (Figure 3).
* :func:`handler100` — 100-instruction handlers (§4.2.2 text: compress ~6x,
  su2cor ~7x, ora ~2%).
* :func:`branch_vs_exception` — branch-like vs exception-like trap handling
  on the out-of-order machine (§4.2.2: +9% / +7% on compress).
* :func:`cc_vs_trap` — the condition-code check and the set-MHAR-per-
  reference trap cost about the same (§2.3).

Results are plain dataclasses; :mod:`repro.harness.report` renders them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import (
    GenericHandler,
    InformingConfig,
    Mechanism,
    TrapStyle,
    add_cc_check_rows,
    add_cc_checks,
    add_mhar_set_rows,
    add_mhar_sets,
)
from repro.harness.configs import MACHINES, MachineSpec, build_core
from repro.pipeline.stream import SharedStream
from repro.workloads import FIGURE2_BENCHMARKS, spec92_workload

#: Default run sizes: measured application instructions and warm-up.
DEFAULT_INSTRUCTIONS = 30_000
DEFAULT_WARMUP = 15_000


def stream_bound(instructions: int, warmup: int) -> int:
    """Length bound of a cell's generated application stream.

    Generous: instrumentation and replay never exhaust it.  The stream
    cache (:func:`shared_stream`) keys on it.
    """
    return 8 * (instructions + warmup) + 100_000


#: The streams of the benchmark this process ran last, keyed by
#: (benchmark, workload seed, stream bound, variant, rows).  A cell of
#: any other benchmark, seed or bound replaces them all, and so does any
#: cell after one of them has failed.
_STREAMS: Dict[Tuple[str, int, int, str, bool], SharedStream] = {}
_STREAMS_LOCK = threading.Lock()
_INSTRUMENT = {("mhar", False): add_mhar_sets, ("cc", False): add_cc_checks,
               ("mhar", True): add_mhar_set_rows,
               ("cc", True): add_cc_check_rows}


def shared_stream(benchmark: str, seed: int, bound: int,
                  variant: str = "plain", rows: bool = False) -> SharedStream:
    """One cell's application stream, shared with its benchmark's cells.

    *variant* is ``"plain"``, ``"mhar"`` (:func:`add_mhar_sets`) or
    ``"cc"`` (:func:`add_cc_checks`); the instrumented variants draw from
    the plain stream, so a benchmark's Figure 2 column generates its
    stream once and instruments it once per variant, however many cells
    read it.  Workload generators are seeded and independent of the
    simulation, so every reader sees exactly the stream a fresh
    ``spec92_workload(benchmark, seed_offset=seed).stream(bound)`` (plus
    the variant's rewriter) would yield.

    With *rows* (the vec backend), the items are rows: the generator's
    ``rows(bound)`` and the rewriters' row twins, with no ``DynInst``
    built.  A stream whose source raised (:attr:`SharedStream.failed`)
    is never handed out again: the next call regenerates from the seed.
    """
    if variant != "plain" and (variant, rows) not in _INSTRUMENT:
        raise ValueError(f"unknown stream variant {variant!r}; expected "
                         f"'plain', 'mhar' or 'cc'")
    with _STREAMS_LOCK:
        if any(stream.failed is not None for stream in _STREAMS.values()):
            _STREAMS.clear()
        return _cached_stream(benchmark, seed, bound, variant, rows)


def _cached_stream(benchmark, seed, bound, variant, rows) -> SharedStream:
    """The cached stream for one key, made (with what it draws from) on
    first use; the caller holds ``_STREAMS_LOCK``."""
    key = (benchmark, seed, bound, variant, rows)
    stream = _STREAMS.get(key)
    if stream is None:
        if variant != "plain":
            source = _INSTRUMENT[variant, rows](_cached_stream(
                benchmark, seed, bound, "plain", rows))
        else:
            if any(k[:3] != key[:3] for k in _STREAMS):
                _STREAMS.clear()
            workload = spec92_workload(benchmark, seed_offset=seed)
            source = workload.rows(bound) if rows else workload.stream(bound)
        stream = _STREAMS[key] = SharedStream(source)
    return stream


def clear_streams() -> None:
    """Empty the stream cache: the next cell generates its stream cold."""
    with _STREAMS_LOCK:
        _STREAMS.clear()


@dataclass(frozen=True)
class BarConfig:
    """One bar of a figure: an informing configuration with a label."""

    label: str
    informing: Optional[InformingConfig]
    per_ref_instrumentation: Optional[str] = None  # None | "mhar" | "cc"


def bar_config(label: str) -> BarConfig:
    """Build a BarConfig from a short label.

    Labels: ``N`` (baseline); ``S<n>``/``U<n>`` — single/unique trap handler
    of n instructions; ``CC<n>`` — condition-code scheme with n-instruction
    per-reference handlers; ``E<n>`` — exception-style single trap handler.

    Raises:
        ValueError: for any malformed label (unknown prefix, or a missing /
            non-decimal handler length, e.g. ``"S"`` or ``"Ux"``).
    """
    if label == "N":
        return BarConfig("N", None)
    if label.startswith("CC"):
        kind, digits = "CC", label[2:]
    else:
        kind, digits = label[:1], label[1:]
    if kind not in ("S", "U", "E", "CC") or not digits.isdigit():
        raise ValueError(
            f"unknown bar label {label!r}: expected 'N', 'S<n>', 'U<n>', "
            f"'E<n>' or 'CC<n>' with a decimal handler length")
    n = int(digits)
    if kind == "CC":
        return BarConfig(label, InformingConfig(
            mechanism=Mechanism.CONDITION_CODE,
            handler=GenericHandler(n, unique=True)), "cc")
    if kind == "S":
        return BarConfig(label, InformingConfig(
            mechanism=Mechanism.TRAP, handler=GenericHandler(n)))
    if kind == "U":
        return BarConfig(label, InformingConfig(
            mechanism=Mechanism.TRAP, handler=GenericHandler(n, unique=True),
            unique_handlers=True), "mhar")
    return BarConfig(label, InformingConfig(
        mechanism=Mechanism.TRAP, trap_style=TrapStyle.EXCEPTION_LIKE,
        handler=GenericHandler(n)))


@dataclass
class BarResult:
    """Measured outcome of one (benchmark, machine, bar) run."""

    benchmark: str
    machine: str
    label: str
    cycles: int
    busy: float
    cache_stall: float
    other_stall: float
    app_instructions: int
    handler_instructions: int
    handler_invocations: int
    l1_miss_rate: float
    normalized: float = 0.0  # filled against the N bar

    @property
    def instructions(self) -> int:
        return self.app_instructions + self.handler_instructions


def run_bar(
    benchmark: str,
    machine_key: str,
    bar: BarConfig,
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    sanitize: bool = False,
    observe=None,
    trace_dir: Optional[str] = None,
    backend: Optional[str] = None,
    policy: str = "lru",
) -> BarResult:
    """Run one benchmark/machine/bar combination on a fresh machine.

    The application stream comes from :func:`shared_stream`, so the
    cells of one benchmark generate and instrument it once per process.

    ``seed`` is a workload seed offset (see
    :func:`repro.workloads.spec92.spec92_workload`); 0 keeps the default
    seed path untouched.  ``sanitize=True`` attaches a
    :class:`repro.sanitize.invariants.Sanitizer` (runtime invariant
    checking) to the core.

    ``observe`` attaches a :class:`repro.obs.observer.Observer` (event
    tracing and metrics): pass an Observer to keep, True/False to force
    one on/off, or None to observe exactly when *trace_dir* is given.
    With a *trace_dir*, the run writes
    ``<benchmark>_<machine>_<label>.events.jsonl`` and
    ``*.metrics.json`` there; the returned BarResult is bit-exact with
    an unobserved run either way.  The engine passes ``sanitize``,
    ``trace_dir`` and ``backend`` from its run's
    :class:`repro.exec.ExecOptions` (``--sanitize``, ``--trace-events``,
    ``--backend``).

    ``backend`` selects the simulation backend (see :mod:`repro.vec`):
    ``"interp"`` (object interpreters), ``"vec"`` (flat row replay,
    digit-exact with interp), or None for
    :func:`repro.vec.resolve_backend`'s default.  Both run with the
    sanitizer and observer attached; a bar with a Python-callback
    handler, the one :func:`repro.vec.vec_supports` refuses, runs on
    interp.

    ``policy`` selects the L1/L2 replacement policy by registry name
    (:mod:`repro.memory.replacement`); ``"lru"`` is the paper's default.
    Every registered policy runs on either backend.  The random
    policy's LCG seed derives from the workload *seed* via
    :func:`repro.memory.derive_seed` — seed 0 keeps the historical
    constant, so existing captures stay digit-exact.
    """
    from repro.memory import derive_seed
    from repro.trace import ambient
    from repro.vec import resolve_backend, vec_supports

    # repro.trace: nest decode/replay spans under the ambient job span
    # when this cell's run is sampled.  tracer is None on the untraced
    # path — every guard below is a single identity test, preserving the
    # hot-path numbers the perf gate pins.
    tracer, parent_span = ambient()
    spec = MACHINES[machine_key]
    core = build_core(spec, informing=bar.informing,
                      replacement_policy=policy,
                      replacement_seed=derive_seed(seed))
    if sanitize:
        from repro.sanitize.invariants import Sanitizer
        Sanitizer().attach(core)
    if observe is None:
        observe = bool(trace_dir)
    if observe is True:
        from repro.obs.observer import Observer
        observe = Observer()
    obs = observe or None
    if obs is not None:
        obs.attach(core)
    vec = resolve_backend(backend) == "vec" and vec_supports(bar)
    decode_span = (tracer.start_span("stream.decode", parent=parent_span,
                                     benchmark=benchmark)
                   if tracer is not None else None)
    stream = shared_stream(benchmark, seed, stream_bound(instructions, warmup),
                           bar.per_ref_instrumentation or "plain", rows=vec)
    if decode_span is not None:
        decode_span.finish()
    replay_span = (tracer.start_span("replay", parent=parent_span,
                                     backend="vec" if vec else "interp",
                                     benchmark=benchmark,
                                     machine=machine_key, label=bar.label,
                                     warmup=warmup, instructions=instructions)
                   if tracer is not None else None)
    if vec:
        from repro.vec.runner import replay
        stats = replay(core, stream, instructions, warmup)
    else:
        stats = core.run(stream, max_app_insts=instructions + warmup,
                         warmup_insts=warmup)
    if replay_span is not None:
        replay_span.set_attr("cycles", stats.cycles)
        replay_span.finish()
    if obs is not None and trace_dir:
        from repro.obs import write_run_artifacts

        if tracer is not None and parent_span is not None and obs.events:
            # Join the obs event stream to the trace: every cycle-
            # stamped event carries the job span it happened under.
            span_id = parent_span.span_id
            for event in obs.events:
                event["span"] = span_id
        export_span = (tracer.start_span("obs.export", parent=parent_span)
                       if tracer is not None else None)
        write_run_artifacts(
            obs, trace_dir, f"{benchmark}_{machine_key}_{bar.label}")
        if export_span is not None:
            export_span.finish()
    breakdown = stats.breakdown()
    return BarResult(
        benchmark=benchmark,
        machine=machine_key,
        label=bar.label,
        cycles=stats.cycles,
        busy=breakdown["busy"],
        cache_stall=breakdown["cache_stall"],
        other_stall=breakdown["other_stall"],
        app_instructions=stats.app_instructions,
        handler_instructions=stats.handler_instructions,
        handler_invocations=stats.handler_invocations,
        l1_miss_rate=core.hierarchy.stats.l1_miss_rate,
    )


@dataclass
class FigureResult:
    """All bars of one figure, normalized per (benchmark, machine)."""

    name: str
    bars: List[BarResult] = field(default_factory=list)

    def normalize(self) -> None:
        baselines: Dict[tuple, int] = {}
        for bar in self.bars:
            if bar.label == "N":
                baselines[(bar.benchmark, bar.machine)] = bar.cycles
        for bar in self.bars:
            base = baselines.get((bar.benchmark, bar.machine))
            if base:
                bar.normalized = bar.cycles / base

    def get(self, benchmark: str, machine: str, label: str) -> BarResult:
        for bar in self.bars:
            if (bar.benchmark == benchmark and bar.machine == machine
                    and bar.label == label):
                return bar
        raise KeyError((benchmark, machine, label))


def run_figure(
    name: str,
    benchmarks: Iterable[str],
    machines: Sequence[str],
    labels: Sequence[str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0,
    engine=None,
    policy: str = "lru",
) -> FigureResult:
    """Run a full bars × benchmarks × machines grid and normalize.

    The grid is enumerated as :class:`repro.exec.SimJob` cells and
    submitted through a :class:`repro.exec.JobRunner` — *engine* if given
    (the CLI wires one up from its execution-engine flags: ``--jobs``,
    ``--no-cache``, ``--backend``, ``--sanitize``, ``--trace-events``,
    ``--trace-sample`` and the rest), otherwise a fresh serial,
    cache-less runner whose behaviour matches the historical inline loop
    exactly.  *policy* applies one replacement
    policy to every cell (``--policy`` on the CLI).
    """
    from repro.exec import ExecOptions, JobRunner, SimJob, bar_result_from_dict

    if engine is None:
        engine = JobRunner(ExecOptions(jobs=1, cache=False))
    jobs = [
        SimJob.bar(benchmark=benchmark, machine=machine, label=label,
                   instructions=instructions, warmup=warmup, seed=seed,
                   policy=policy)
        for benchmark in benchmarks
        for machine in machines
        for label in labels
    ]
    result = FigureResult(name=name)
    result.bars = [bar_result_from_dict(row) for row in engine.run(jobs)]
    result.normalize()
    return result


def figure2(instructions: int = DEFAULT_INSTRUCTIONS,
            warmup: int = DEFAULT_WARMUP,
            benchmarks: Optional[Sequence[str]] = None,
            seed: int = 0, engine=None, policy: str = "lru") -> FigureResult:
    """Figure 2: N/S1/U1/S10/U10 on both machines, thirteen benchmarks."""
    return run_figure(
        "figure2", benchmarks or FIGURE2_BENCHMARKS, ["ooo", "inorder"],
        ["N", "S1", "U1", "S10", "U10"], instructions, warmup,
        seed=seed, engine=engine, policy=policy)


def figure3(instructions: int = DEFAULT_INSTRUCTIONS,
            warmup: int = DEFAULT_WARMUP,
            seed: int = 0, engine=None, policy: str = "lru") -> FigureResult:
    """Figure 3: su2cor, which needs its own y-axis."""
    return run_figure("figure3", ["su2cor"], ["ooo", "inorder"],
                      ["N", "S1", "U1", "S10", "U10"], instructions, warmup,
                      seed=seed, engine=engine, policy=policy)


def handler100(instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               benchmarks: Sequence[str] = ("compress", "su2cor", "ora"),
               seed: int = 0, engine=None,
               policy: str = "lru") -> FigureResult:
    """§4.2.2: 100-instruction handlers on the miss-heavy and miss-free ends.

    The paper reports these for the in-order model: compress ~6x slower,
    su2cor ~7x slower, ora ~2% overhead.
    """
    return run_figure("handler100", benchmarks, ["inorder"],
                      ["N", "S100"], instructions, warmup,
                      seed=seed, engine=engine, policy=policy)


def branch_vs_exception(instructions: int = DEFAULT_INSTRUCTIONS,
                        warmup: int = DEFAULT_WARMUP,
                        benchmark: str = "compress",
                        seed: int = 0, engine=None,
                        policy: str = "lru") -> FigureResult:
    """§4.2.2/§3.2: exception-style traps cost ~7-9% extra on compress."""
    return run_figure("branch_vs_exception", [benchmark], ["ooo"],
                      ["N", "S1", "E1", "S10", "E10"], instructions, warmup,
                      seed=seed, engine=engine, policy=policy)


def cc_vs_trap(instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               benchmark: str = "compress",
               seed: int = 0, engine=None,
               policy: str = "lru") -> FigureResult:
    """§2.3: the CC check and set-MHAR-per-reference cost about the same."""
    return run_figure("cc_vs_trap", [benchmark], ["ooo", "inorder"],
                      ["N", "CC1", "U1"], instructions, warmup,
                      seed=seed, engine=engine, policy=policy)
