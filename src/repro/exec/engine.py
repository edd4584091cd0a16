"""The scheduler: fan jobs across processes, with cache, retry and timeout.

:class:`JobRunner` takes a sequence of :class:`~repro.exec.job.SimJob`,
resolves what it can from the result cache, executes the rest — inline
when ``jobs == 1`` (byte-identical to the historical serial loops), or on
a ``ProcessPoolExecutor`` otherwise — and returns result dicts in job
order.

Failure policy:

* a job raising :class:`TransientJobError` is retried up to
  ``retries`` times with exponential backoff (``backoff * 2**attempt``
  seconds), each retry surfaced as a ``retried`` telemetry event;
* a job whose simulation trips a :class:`repro.sanitize`
  :class:`InvariantViolation` does **not** abort the grid: the violation
  becomes a structured per-job failure record (``status:
  "invariant_violation"`` plus the violation's component / cycle /
  snapshot) and a ``failed`` telemetry event carrying the same payload,
  while the remaining jobs keep running;
* any other exception, or exhausting the retry budget, fails the run
  with :class:`JobFailedError`;
* in parallel mode a job that does not produce a result within
  ``timeout`` seconds of being waited on fails the run with
  :class:`JobTimeoutError` and cancels the remaining work — the run
  never hangs.  Serial mode cannot preempt a running simulation, so
  there the timeout is checked after the job returns;
* a worker killed by the OS (OOM killer, SIGKILL) breaks the whole
  ``ProcessPoolExecutor`` and poisons every in-flight future — the
  runner emits one ``pool_broken`` event and re-runs the unfinished
  jobs on the serial path, carrying over each job's attempt count so
  the retry budget still bounds the total work.

Graceful shutdown: :meth:`JobRunner.request_drain` (or SIGTERM/SIGINT
when ``options.install_signal_handlers`` is set) stops the run admitting
new work — in-flight jobs finish and are stored/recorded normally,
not-yet-started jobs are given up with a ``drained`` telemetry event,
and the run returns partial results (``None`` for drained slots) after
closing the run record and writing the run manifest.

The run record: every run keeps one ordered list of records in
:attr:`JobRunner.records` — a ``journal_header``, the ``run_start`` grid,
one record per job boundary (``job_start`` / ``job_finish`` /
``job_fail`` / ``job_retry`` / ``job_drained`` / ``pool_broken``),
``run_end`` with the run's counts, then the ``span`` records of a
sampled run.  A run with a directory (``options.manifest_dir``) appends
each record through a :class:`repro.durable.RunJournal` to
``<root>/<run_id>/journal.jsonl`` as it happens and, at ``run_end``,
folds the in-memory records into ``manifest.json``.  That journal is
the one file ``watch``, ``resume`` and ``spans`` read.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.job import SimJob, execute_job
from repro.exec.telemetry import (
    CACHE_HIT,
    DRAINED,
    FAILED,
    FINISHED,
    POOL_BROKEN,
    QUEUED,
    REPLAYED,
    RETRIED,
    STARTED,
    JobEvent,
    MultiSink,
    ProgressPrinter,
    RunTelemetry,
    git_sha,
)
from repro.sanitize.violation import InvariantViolation
from repro.trace import clear_ambient, flight, maybe_tracer, set_ambient


class TransientJobError(RuntimeError):
    """A retryable failure (flaky environment, worker hiccup)."""


class JobTimeoutError(RuntimeError):
    """A job exceeded the configured per-job timeout."""


class JobFailedError(RuntimeError):
    """A job failed permanently (non-transient, or retries exhausted)."""


@dataclass
class ExecOptions:
    """Knobs for one :class:`JobRunner`.

    ``jobs=1`` is the serial fallback: jobs run inline, in order, with no
    worker processes.  ``cache=False`` disables the result cache entirely
    (neither reads nor writes).
    """

    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    timeout: Optional[float] = None     # seconds per job
    retries: int = 2                    # extra attempts after the first
    backoff: float = 0.25               # seconds; doubles per retry
    progress: bool = False              # live stderr progress meter
    #: Root directory for run records: each run() appends its records to
    #: ``<manifest_dir>/<run_id>/journal.jsonl`` as it goes (so a killed
    #: grid can be continued with ``harness resume <run_id>``) and folds
    #: them into ``manifest.json`` at the end.  None keeps the records in
    #: memory only.
    manifest_dir: Optional[str] = None
    #: Run provenance carried in the journal header and the manifest
    #: (experiment name, CLI argv, seed, resumed_from, ...).
    run_meta: Optional[Dict[str, Any]] = None
    #: Install SIGTERM/SIGINT handlers for the duration of each run()
    #: (main thread only): the first signal requests a graceful drain,
    #: a second one raises KeyboardInterrupt.  Off by default so library
    #: callers and tests never have their signal disposition touched.
    install_signal_handlers: bool = False
    #: fsync policy for the run journal ("always" | "batch" | "off");
    #: None defers to ``REPRO_JOURNAL_FSYNC``, then "always".
    journal_fsync: Optional[str] = None
    #: Simulation backend for bar jobs ("interp" | "vec", see
    #: :mod:`repro.vec`); None defers to ``REPRO_BACKEND``.  Plumbed
    #: through the environment (which forked pool workers inherit, the
    #: same route ``--sanitize`` uses) — never through the job itself:
    #: backends are digit-exact, so a :meth:`SimJob.cache_key` is
    #: backend-free and either backend may serve the shared cache.
    backend: Optional[str] = None
    #: repro.trace head-based sampling rate for this run ([0, 1]); None
    #: defers to ``REPRO_TRACE_SAMPLE``, then 0.0 (tracing off — the
    #: default costs one ``is None`` test per instrumentation site).
    trace_sample: Optional[float] = None
    #: Incoming ``traceparent`` header (repro.serve): when it carries a
    #: sampled context this run continues that trace regardless of the
    #: sampling rate; an unsampled parent disables tracing (head-based
    #: sampling — the caller's decision wins).
    trace_parent: Optional[str] = None


#: Scheduler events that become run records, by record name.  Because
#: the engine stores a result in the cache *before* emitting FINISHED, a
#: journaled ``job_finish`` implies the result is durably cached — the
#: invariant ``harness resume`` relies on to skip completed cells.
_RECORDS = {STARTED: "job_start", FINISHED: "job_finish",
            FAILED: "job_fail", RETRIED: "job_retry",
            DRAINED: "job_drained", POOL_BROKEN: "pool_broken"}

#: Result fields that are *simulated* outputs (deterministic given the
#: job) for bar cells: the subset a ``job_finish`` record carries.
_BAR_SIM_FIELDS = (
    "cycles", "busy", "cache_stall", "other_stall", "app_instructions",
    "handler_instructions", "handler_invocations", "l1_miss_rate",
)


def _sim_view(result: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic (simulated) slice of a job result dict."""
    if all(name in result for name in _BAR_SIM_FIELDS):
        return {name: result[name] for name in _BAR_SIM_FIELDS}
    # Non-bar kinds (access_control, apps, test payloads): every field
    # the executor returned is simulated output.
    return dict(result)


def _timed_call(execute: Callable[[SimJob], Dict[str, Any]],
                job: SimJob, traceparent: Optional[str] = None):
    """Worker-side wrapper: run *execute* and measure its wall time.

    Module-level so the process pool can pickle it by reference.  A pool
    worker of a sampled run is handed its job span's *traceparent*: the
    call then runs under a tracer continuing that context, and the
    finished span records travel back with ``(result, wall, spans)``.
    """
    tracer = maybe_tracer(parent=traceparent) if traceparent else None
    if tracer is not None:
        set_ambient(tracer, None)
    start = time.perf_counter()
    try:
        result = execute(job)
    finally:
        if tracer is not None:
            clear_ambient()
    wall = time.perf_counter() - start
    spans = tracer.records(time.time()) if tracer is not None else None
    return result, wall, spans


class FlightSink:
    """Telemetry sink feeding the process-wide repro.trace flight
    recorder: a bounded ring of recent scheduler events that is always
    on (appending to a deque, no I/O) and only hits disk when a crash
    path dumps it.  This is what makes a pool-broken / invariant /
    drain artifact readable — the last ~256 events before the fault.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def emit(self, event: JobEvent) -> None:
        self.recorder.note(
            "job." + event.event, key=event.key[:16], label=event.label,
            attempt=event.attempt,
            **({"error": event.error} if event.error else {}))


class JobRunner:
    """Execute SimJobs through the cache/scheduler/telemetry stack.

    ``execute`` is pluggable (module-level callable taking a SimJob) so
    tests can inject flaky or slow payloads; it defaults to
    :func:`repro.exec.job.execute_job`.  *sinks* see every
    :class:`JobEvent` before the engine keeps it as a run record; those
    with a ``record`` method also receive each record once it is kept.
    """

    def __init__(self, options: Optional[ExecOptions] = None, *,
                 execute: Callable[[SimJob], Dict[str, Any]] = execute_job,
                 sinks: Sequence = (),
                 cache: Optional[ResultCache] = None) -> None:
        self.options = options or ExecOptions()
        if self.options.backend is not None:
            from repro.vec import BACKEND_ENV, resolve_backend

            # Validates the name (BackendError on a typo) and exports it
            # so both the serial path and forked pool workers see it.
            os.environ[BACKEND_ENV] = resolve_backend(self.options.backend)
        self.execute = execute
        self.extra_sinks = list(sinks)
        self._record_sinks = [sink for sink in self.extra_sinks
                              if hasattr(sink, "record")]
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif self.options.cache:
            self.cache = (ResultCache(self.options.cache_dir)
                          if self.options.cache_dir else ResultCache())
        else:
            self.cache = None
        self.stats = RunTelemetry()
        #: The most recent run's records, in order (see the module doc).
        self.records: List[Dict[str, Any]] = []
        #: Path of the most recent run's manifest.json (repro.perf), when
        #: ``options.manifest_dir`` is set and the write succeeded.
        self.last_manifest: Optional[str] = None
        #: Run id and journal path of the most recent run() — the journal
        #: path is set as the run opens and cleared at its end if nothing
        #: reached the disk (``harness resume <last_run_id>`` continues
        #: that run after a kill).
        self.last_run_id: Optional[str] = None
        self.last_journal: Optional[str] = None
        self._journal = None
        self._drain = False
        #: repro.trace state for the duration of one run(): the sampled
        #: tracer (None → tracing off, the common case), the run-root
        #: span, and the flight-dump directory.
        self._tr = None
        self._run_span = None
        #: Span records pool workers returned with their results.
        self._pool_spans: List[Dict[str, Any]] = []
        self._flight_dir: Optional[str] = None
        self._flight_dumped: set = set()

    # -- graceful shutdown ---------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once a drain was requested; sticky across grids."""
        return self._drain

    def request_drain(self) -> None:
        """Ask the current (and any future) run to stop admitting work.

        Safe from signal handlers and other threads: it only sets a flag
        the run loops poll between jobs.  In-flight jobs finish and are
        recorded; jobs not yet started are marked ``drained`` and their
        result slot stays ``None``.
        """
        self._drain = True

    @contextlib.contextmanager
    def _graceful_signals(self):
        """SIGTERM/SIGINT -> drain, for the duration of one run().

        Only active when ``options.install_signal_handlers`` is set and
        we are on the main thread (the only place the signal module
        allows handler changes).  A second signal while already draining
        raises KeyboardInterrupt so a hung drain can still be escaped.
        """
        if (not self.options.install_signal_handlers
                or threading.current_thread() is not threading.main_thread()):
            yield
            return
        previous = {}

        def _on_signal(signum, frame):
            if self._drain:
                raise KeyboardInterrupt
            self.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _on_signal)
            except (ValueError, OSError):  # non-main interpreter quirks
                pass
        try:
            yield
        finally:
            for signum, old in previous.items():
                try:
                    signal.signal(signum, old)
                except (ValueError, OSError):
                    pass

    # -- telemetry and the run record ---------------------------------------
    def _emit(self, sink, event: str, job: SimJob, key: str,
              result: Optional[Dict[str, Any]] = None, **extra) -> None:
        """Show *event* to the sinks, then keep it as a run record.

        The record comes second so the sinks' view of a job boundary
        never waits on a journal append.  *result* (FINISHED only) gives
        the ``job_finish`` record its simulated-stat subset.
        """
        note = JobEvent(event=event, key=key, label=job.label,
                        timestamp=time.time(), **extra)
        sink.emit(note)
        rec = _RECORDS.get(event)
        if rec is None:
            return
        record = dict(extra, rec=rec, ts=note.timestamp, key=key,
                      label=note.label, attempt=note.attempt)
        if result is not None:
            record["sim"] = _sim_view(result)
        self._keep(record)

    def _keep(self, record: Dict[str, Any]) -> None:
        """Keep one record in memory, journal it, show the record sinks."""
        self.records.append(record)
        if self._journal is not None:
            self._journal.append(record)
        for sink in self._record_sinks:
            sink.record(record)

    @staticmethod
    def _trace_extra(job: SimJob) -> Dict[str, str]:
        """FINISHED-event extras for executed jobs: the per-job repro.obs
        trace path (when a trace directory is configured) and the
        effective simulation backend."""
        from repro.obs import job_trace_path, obs_trace_dir

        extra: Dict[str, str] = {}
        directory = obs_trace_dir()
        if directory:
            extra["trace"] = job_trace_path(directory, job.label)
        backend = JobRunner._effective_backend(job)
        if backend is not None:
            extra["backend"] = backend
        return extra

    @staticmethod
    def _effective_backend(job: SimJob) -> Optional[str]:
        """The backend a just-executed bar job actually ran on.

        Mirrors the dispatch in :func:`repro.harness.runner.run_bar`: a
        "vec" request downgrades to "interp" when the bar or replacement
        policy is outside the flat kernels, or a sanitizer/observer is
        attached — making vec fallbacks visible in telemetry rather than
        silent.  None for non-bar jobs (they have no backend choice).
        """
        from repro.exec.job import KIND_BAR

        if job.kind != KIND_BAR:
            return None
        from repro.harness.runner import bar_config
        from repro.obs import obs_enabled
        from repro.sanitize import sanitize_enabled
        from repro.vec import BackendError, resolve_backend, vec_supports

        try:
            backend = resolve_backend(None)
        except BackendError:  # unknown REPRO_BACKEND fails in run_bar too
            return None
        if backend != "vec":
            return "interp"
        cfg = job.config_dict()
        try:
            bar = bar_config(cfg.get("label", "N"))
        except ValueError:
            return None
        if (sanitize_enabled() or obs_enabled()
                or not vec_supports(bar, cfg.get("policy", "lru"))):
            return "interp"
        return "vec"

    def _open_run(self, jobs: Sequence[SimJob]) -> str:
        """Mint this run's id and open its record with the header.

        With a root directory the records are journaled to
        ``<root>/<run_id>/journal.jsonl`` from the header on, so a kill
        before the manifest still leaves a resumable run on disk, and
        the manifest lands in the same directory.
        """
        from repro.durable.journal import (EXEC_KIND, JOURNAL_NAME,
                                           RunJournal, header_record)
        from repro.perf.manifest import new_run_id

        meta = self.options.run_meta or {}
        run_id = new_run_id(meta.get("experiment"))
        root = self.options.manifest_dir
        self.records = []
        self.last_run_id = run_id
        self._journal = self.last_journal = self._flight_dir = None
        if root:
            self._flight_dir = os.path.join(root, run_id)
            self._journal = RunJournal(
                os.path.join(self._flight_dir, JOURNAL_NAME),
                fsync=self.options.journal_fsync)
            self.last_journal = self._journal.path
        now = time.time()
        self._keep(header_record(
            EXEC_KIND, run_id=run_id, experiment=meta.get("experiment"),
            argv=meta.get("argv"), seed=meta.get("seed"),
            resumed_from=meta.get("resumed_from"), git_sha=git_sha(),
            workers=self.options.jobs, jobs=len(jobs),
            cache=self.cache is not None, started=now, ts=now))
        return run_id

    def _build_sink(self, run_stats: RunTelemetry, total: int):
        sinks: List = [run_stats] + self.extra_sinks
        if self.options.progress:
            sinks.append(ProgressPrinter(total))
        sinks.append(FlightSink(flight()))
        return MultiSink(sinks)

    def _maybe_flight_dump(self, reason: str) -> None:
        """Dump the flight-recorder tail once per (run, reason).

        Only materializes when a destination is known — the run's own
        artifact directory, or ``REPRO_TRACE_FLIGHT_DIR`` — so library
        callers without run dirs never find stray crash files in cwd.
        """
        if reason in self._flight_dumped:
            return
        self._flight_dumped.add(reason)
        directory = self._flight_dir or os.environ.get(
            "REPRO_TRACE_FLIGHT_DIR")
        if directory:
            flight().dump(reason, directory)

    # -- main entry ----------------------------------------------------------
    def run(self, jobs: Sequence[SimJob],
            resume=None) -> List[Dict[str, Any]]:
        """Run *jobs* and return their result dicts in the same order.

        ``self.stats`` accumulates across calls (an experiment like
        ``sensitivity`` submits several grids through one runner); build a
        fresh JobRunner for independent accounting.  Each call is its own
        run: its own id, records and (with a root) journal and manifest.

        *resume* is a :class:`repro.durable.RunState` (or anything with
        ``completed``/``attempts`` keyed by cache key): journal-completed
        cells are replayed from the cache without re-executing (a
        ``replayed`` event plus FINISHED with ``cache="replay"``), and
        re-run cells inherit their journaled attempt counts so the retry
        budget spans the interrupted run and the resume.  A completed
        cell whose cache entry was lost or quarantined silently re-runs.
        """
        run_id = self._open_run(jobs)
        meta = self.options.run_meta or {}
        self._tr = maybe_tracer(self.options.trace_sample,
                                self.options.trace_parent)
        self._flight_dumped = set()
        if self._tr is not None:
            self._run_span = self._tr.start_span(
                "run", jobs=len(jobs), workers=self.options.jobs,
                run_id=run_id,
                **({"experiment": meta["experiment"]}
                   if meta.get("experiment") else {}))
        run_stats = RunTelemetry()
        sink = self._build_sink(run_stats, len(jobs))
        run_start = time.perf_counter()
        results: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        error: Optional[BaseException] = None
        completed = getattr(resume, "completed", None) or {}
        carried = dict(getattr(resume, "attempts", None) or {})
        try:
            with self._graceful_signals():
                keys = [job.cache_key() for job in jobs]
                jnl_span = (self._tr.start_span(
                    "journal.append", parent=self._run_span)
                    if self._tr is not None else None)
                self._keep({"rec": "run_start", "run_id": run_id,
                            "ts": time.time(),
                            "jobs": [{"key": key, "job": job.to_dict()}
                                     for job, key in zip(jobs, keys)]})
                if jnl_span is not None:
                    jnl_span.finish()
                probe_span = (self._tr.start_span(
                    "cache.probe", parent=self._run_span)
                    if self._tr is not None else None)
                pending: List[int] = []
                attempts0: Dict[int, int] = {}
                for index, (job, key) in enumerate(zip(jobs, keys)):
                    self._emit(sink, QUEUED, job, key)
                    cached = self.cache.get(job) if self.cache else None
                    if cached is not None and key in completed:
                        results[index] = cached
                        self._emit(sink, REPLAYED, job, key)
                        self._emit(sink, FINISHED, job, key, cached,
                                   cache="replay", wall=0.0)
                    elif cached is not None:
                        results[index] = cached
                        self._emit(sink, CACHE_HIT, job, key)
                        self._emit(sink, FINISHED, job, key, cached,
                                   cache="hit", wall=0.0)
                    else:
                        pending.append(index)
                        if carried.get(key):
                            attempts0[index] = int(carried[key])
                if probe_span is not None:
                    probe_span.set_attr("hits", len(jobs) - len(pending))
                    probe_span.set_attr("pending", len(pending))
                    probe_span.finish()

                if pending:
                    if self.options.jobs <= 1:
                        self._run_serial(jobs, keys, pending, results, sink,
                                         attempts=attempts0 or None)
                    else:
                        self._run_parallel(jobs, keys, pending, results,
                                           sink,
                                           initial_attempts=attempts0)
            return results  # type: ignore[return-value]
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._close_run(run_stats, time.perf_counter() - run_start,
                            error)

    def _close_run(self, run_stats: RunTelemetry, wall: float,
                   error: Optional[BaseException]) -> None:
        """End the run record: ``run_end`` with the run's counts, the
        manifest folded from the in-memory records, then the span records
        of a sampled run — and only then close the journal."""
        journal = self._journal
        run_stats.wall = wall
        if journal is not None:
            run_stats.journal_errors = journal.errors
        now = time.time()
        self._keep({"rec": "run_end", "ts": now, "finished": now,
                    "status": ("failed" if error is not None
                               else "drained" if self._drain else "ok"),
                    "error": (f"{type(error).__name__}: {error}"
                              if error is not None else None),
                    "stats": run_stats.as_dict()})
        if self.options.manifest_dir:
            mspan = (self._tr.start_span("manifest.write",
                                         parent=self._run_span)
                     if self._tr is not None else None)
            self._write_manifest()
            if mspan is not None:
                mspan.finish()
        if self._tr is not None:
            self._run_span.finish("error" if error is not None else None)
            self._keep_spans()
            self._tr = self._run_span = None
        if journal is not None:
            journal.close()
            run_stats.journal_errors = journal.errors
            if not journal.records_written:
                self.last_journal = None
        self.stats.absorb(run_stats)
        self._journal = self._flight_dir = None

    def _keep_spans(self) -> None:
        """Keep a sampled run's spans, plus those its pool workers sent
        back, as ``span`` records in one journal write."""
        records = self._tr.records(time.time()) + self._pool_spans
        self._pool_spans = []
        self.records.extend(records)
        if self._journal is not None:
            self._journal.extend(records)
        for sink in self._record_sinks:
            for record in records:
                sink.record(record)

    def _write_manifest(self) -> None:
        """Cross-run observatory hook: fold the run's records into its
        manifest.

        Imported lazily so repro.exec keeps no hard dependency on
        repro.perf; a manifest-write failure never masks the run itself.
        """
        from repro.perf.manifest import write_run_manifest

        try:
            self.last_manifest = write_run_manifest(
                self.options.manifest_dir, self.records,
                journal=self._journal)
        except OSError:
            self.last_manifest = None

    # -- serial path ---------------------------------------------------------
    def _run_serial(self, jobs, keys, pending, results, sink,
                    attempts: Optional[Dict[int, int]] = None,
                    span_mode: str = "serial") -> None:
        """Run *pending* inline.  *attempts* carries prior attempt counts
        (the pool-broken fallback path), so the retry budget bounds the
        total attempts a job gets across both execution modes.
        *span_mode* labels this path's repro.trace job spans — the
        pool-broken fallback re-parents its re-run jobs under the same
        run span with ``mode="serial_fallback"``."""
        cache_state = "miss" if self.cache else "off"
        for position, index in enumerate(pending):
            if self._drain:
                self._drain_indices(jobs, keys, pending[position:], results,
                                    sink, attempts)
                return
            job, key = jobs[index], keys[index]
            attempt = attempts.get(index, 0) if attempts else 0
            violation = None
            jspan = None
            if self._tr is not None:
                jspan = self._tr.start_span("job", parent=self._run_span,
                                            label=job.label, mode=span_mode)
                set_ambient(self._tr, jspan)
            try:
                while True:
                    self._emit(sink, STARTED, job, key, attempt=attempt)
                    try:
                        result, wall, _ = _timed_call(self.execute, job)
                        break
                    except InvariantViolation as exc:
                        violation = exc
                        break
                    except TransientJobError as exc:
                        attempt += 1
                        if attempt > self.options.retries:
                            self._fail(sink, job, key, attempt, exc)
                        self._retry(sink, job, key, attempt, exc)
                    except Exception as exc:
                        self._fail(sink, job, key, attempt + 1, exc)
                if violation is not None:
                    if jspan is not None:
                        jspan.set_attr("violation", True)
                        jspan.finish("error")
                    results[index] = self._violation_result(
                        sink, job, key, attempt, violation)
                    continue
                timeout = self.options.timeout
                if timeout is not None and wall > timeout:
                    self._emit(sink, FAILED, job, key, attempt=attempt,
                               wall=wall, error="timeout")
                    raise JobTimeoutError(
                        f"job {job.label} took {wall:.2f}s, exceeding the "
                        f"{timeout:.2f}s per-job timeout (serial mode can "
                        f"only detect this after the fact; use --jobs >= 2 "
                        f"to preempt)")
                self._store(job, result)
                results[index] = result
                self._emit(sink, FINISHED, job, key, result,
                           attempt=attempt, wall=wall, cache=cache_state,
                           **self._trace_extra(job),
                           **({"span": jspan.span_id} if jspan else {}))
            finally:
                if jspan is not None:
                    clear_ambient()
                    jspan.set_attr("attempt", attempt)
                    if jspan.end is None:
                        jspan.finish(
                            "error" if sys.exc_info()[0] else None)

    # -- parallel path -------------------------------------------------------
    @staticmethod
    def _abort_pool(pool: ProcessPoolExecutor) -> None:
        """Stop a pool without waiting on in-flight (possibly hung) jobs."""
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass

    def _run_parallel(self, jobs, keys, pending, results, sink,
                      initial_attempts: Optional[Dict[int, int]] = None
                      ) -> None:
        cache_state = "miss" if self.cache else "off"
        workers = min(self.options.jobs, len(pending))
        timeout = self.options.timeout
        pool = ProcessPoolExecutor(max_workers=workers)
        aborted = False
        # Trace propagation across the pool boundary: each submission
        # carries its job span's traceparent, and the worker's spans
        # come back with the result (see _timed_call).
        jspans: Dict[int, Any] = {}
        parents: Dict[int, Optional[str]] = {}
        try:
            futures = {}
            # Seed attempt counts carried in from a resumed run so the
            # retry budget bounds total attempts across both runs.
            attempts = {index: (initial_attempts or {}).get(index, 0)
                        for index in pending}
            try:
                # A worker may die before the last submission: submit
                # raises BrokenProcessPool then, handled like a dead
                # worker seen at collection.
                for index in pending:
                    job, key = jobs[index], keys[index]
                    self._emit(sink, STARTED, job, key,
                               attempt=attempts[index])
                    parents[index] = None
                    if self._tr is not None:
                        jspans[index] = self._tr.start_span(
                            "job", parent=self._run_span,
                            label=job.label, mode="pool")
                        parents[index] = self._tr.traceparent(jspans[index])
                    futures[index] = pool.submit(_timed_call, self.execute,
                                                 job, parents[index])
                # Collect in submission order; retries resubmit in place.
                for index in pending:
                    if self._drain and results[index] is None:
                        aborted = True
                        self._drain_pool(pool, jobs, keys, pending, futures,
                                         attempts, results, sink,
                                         cache_state)
                        return
                    job, key = jobs[index], keys[index]
                    violation = None
                    while True:
                        try:
                            result, wall, spans = futures[index].result(
                                timeout=timeout)
                            break
                        except FutureTimeoutError:
                            aborted = True
                            self._emit(sink, FAILED, job, key,
                                       attempt=attempts[index],
                                       error="timeout")
                            self._abort_pool(pool)
                            raise JobTimeoutError(
                                f"job {job.label} produced no result within "
                                f"the {timeout:.2f}s per-job timeout; run "
                                f"aborted "
                                f"({sum(r is None for r in results)} jobs "
                                f"unfinished)") from None
                        except BrokenProcessPool:
                            raise  # handled below: fall back to serial
                        except InvariantViolation as exc:
                            violation = exc
                            break
                        except TransientJobError as exc:
                            attempts[index] += 1
                            if attempts[index] > self.options.retries:
                                aborted = True
                                self._abort_pool(pool)
                                self._fail(sink, job, key, attempts[index],
                                           exc)
                            self._retry(sink, job, key, attempts[index], exc)
                            self._emit(sink, STARTED, job, key,
                                       attempt=attempts[index])
                            futures[index] = pool.submit(
                                _timed_call, self.execute, job,
                                parents[index])
                        except Exception as exc:
                            aborted = True
                            self._abort_pool(pool)
                            self._fail(sink, job, key, attempts[index] + 1,
                                       exc)
                    jspan = jspans.pop(index, None)
                    if violation is not None:
                        if jspan is not None:
                            jspan.set_attr("violation", True)
                            jspan.set_attr("attempt", attempts[index])
                            jspan.finish("error")
                        results[index] = self._violation_result(
                            sink, job, key, attempts[index], violation)
                        continue
                    if jspan is not None:
                        jspan.set_attr("attempt", attempts[index])
                        jspan.finish()
                        self._pool_spans.extend(spans or ())
                    self._store(job, result)
                    results[index] = result
                    self._emit(sink, FINISHED, job, key, result,
                               attempt=attempts[index], wall=wall,
                               cache=cache_state,
                               **self._trace_extra(job),
                               **({"span": jspan.span_id} if jspan else {}))
            except BrokenProcessPool as exc:
                # A worker died hard (OOM kill, crashed interpreter): the
                # pool and every in-flight future are poisoned.  Tear the
                # pool down and finish the remaining jobs serially — the
                # results already collected stand, and attempt counts carry
                # over so the retry budget still bounds total work.
                aborted = True
                self._emit(sink, POOL_BROKEN, job, key,
                           attempt=attempts.get(index, 0),
                           error=f"{type(exc).__name__}: {exc}")
                self._maybe_flight_dump("pool_broken")
                self._abort_pool(pool)
                # Close the dead pool's dispatch spans; the fallback
                # re-runs get fresh spans (mode="serial_fallback") under
                # the same run span, so the tree stays connected.
                for orphan in jspans.values():
                    orphan.set_attr("pool_broken", True)
                    orphan.finish("error")
                jspans.clear()
                unfinished = [i for i in pending if results[i] is None]
                self._run_serial(jobs, keys, unfinished, results, sink,
                                 attempts=attempts,
                                 span_mode="serial_fallback")
        finally:
            if not aborted:
                pool.shutdown(wait=True, cancel_futures=True)

    # -- graceful drain ------------------------------------------------------
    def _drain_indices(self, jobs, keys, indices, results, sink,
                       attempts: Optional[Dict[int, int]] = None) -> None:
        """Mark every unfinished job in *indices* as drained."""
        self._maybe_flight_dump("drain")
        for index in indices:
            if results[index] is not None:
                continue
            attempt = (attempts or {}).get(index, 0)
            self._emit(sink, DRAINED, jobs[index], keys[index],
                       attempt=attempt)

    def _drain_pool(self, pool, jobs, keys, pending, futures, attempts,
                    results, sink, cache_state) -> None:
        """Drain the parallel path: wait for in-flight futures, cancel the
        queued ones, harvest whatever completed, mark the rest drained."""
        self._maybe_flight_dump("drain")
        pool.shutdown(wait=True, cancel_futures=True)
        for index in pending:
            if results[index] is not None:
                continue
            future = futures.get(index)
            attempt = attempts.get(index, 0)
            if (future is not None and future.done()
                    and not future.cancelled()):
                exc = future.exception()
                if exc is None:
                    result, wall, spans = future.result()
                    self._pool_spans.extend(spans or ())
                    self._store(jobs[index], result)
                    results[index] = result
                    self._emit(sink, FINISHED, jobs[index], keys[index],
                               result, attempt=attempt, wall=wall,
                               cache=cache_state,
                               **self._trace_extra(jobs[index]))
                    continue
                if isinstance(exc, InvariantViolation):
                    results[index] = self._violation_result(
                        sink, jobs[index], keys[index], attempt, exc)
                    continue
                # Any other in-flight failure during a drain is recorded
                # as drained-with-error rather than aborting the flush.
                self._emit(sink, DRAINED, jobs[index], keys[index],
                           attempt=attempt,
                           error=f"{type(exc).__name__}: {exc}")
                continue
            self._emit(sink, DRAINED, jobs[index], keys[index],
                       attempt=attempt)

    # -- shared helpers ------------------------------------------------------
    def _violation_result(self, sink, job, key, attempt,
                          exc: InvariantViolation) -> Dict[str, Any]:
        """Convert an in-simulation invariant violation into a structured
        per-job failure record; the rest of the grid keeps running."""
        self._emit(sink, FAILED, job, key, attempt=attempt,
                   error=f"{type(exc).__name__}: {exc}",
                   violation=exc.to_dict())
        self._maybe_flight_dump("invariant_violation")
        return {"status": "invariant_violation", "job": job.to_dict(),
                "violation": exc.to_dict()}

    def _store(self, job: SimJob, result: Dict[str, Any]) -> None:
        if self.cache is not None:
            self.cache.put(job, result)

    def _retry(self, sink, job, key, attempt, exc) -> None:
        self._emit(sink, RETRIED, job, key, attempt=attempt,
                   error=f"{type(exc).__name__}: {exc}")
        time.sleep(self.options.backoff * (2 ** (attempt - 1)))

    def _fail(self, sink, job, key, attempts, exc) -> None:
        """Abort the run; *attempts* is the total number of attempts made."""
        self._emit(sink, FAILED, job, key, attempt=attempts - 1,
                   error=f"{type(exc).__name__}: {exc}")
        raise JobFailedError(
            f"job {job.label} failed after {attempts} attempt(s): "
            f"{type(exc).__name__}: {exc}") from exc
