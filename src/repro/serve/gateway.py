"""The serving core: admission, coalescing, worker shards.

One :class:`Gateway` owns the whole request path between the HTTP layer
and the exec engine.  :meth:`Gateway.submit` is a synchronous front,
which the HTTP layer runs inside ``data_received``, followed by an
awaited tail, which only a miss reaches::

  front:  body -> spec memo by body digest            (new body: decode it)
               -> drain check
               -> spec validation                     (memo hit: skipped)
               -> settled results in memory           (hit: answer now,
                                                       body encoded once)
               -> content-addressed cache probe       (hit: remember, answer)
  tail:        -> in-flight coalescing on the key     (dup: join the run)
               -> bounded admission queue             (full: 503)
               -> worker shard -> JobRunner -> result + run journal
                                                      (remember on finish)

Worker shards are asyncio tasks that hand admitted tickets to a
``ThreadPoolExecutor`` (one thread per shard) where a per-request
:class:`~repro.exec.JobRunner` executes the cell inline — the same
engine, cache and run journal a CLI run uses, so a served result is
byte-identical to ``python -m repro.harness`` running the same cell
(the config digest of the run's record, ``GET /runs/<id>``, is the
proof).  Every run uses the backend
resolved once at boot: ``vec``, the flat kernels, unless
``REPRO_BACKEND`` names another (the backends are digit-exact).

Coalescing: two identical in-flight requests share one
:class:`Ticket` — the engine runs once, both responses are fed from the
same future, and the ``serve.coalesced`` counter records the join.

Settled results: ``settled`` is the finished counterpart of
``in_flight``, a map from cache key to result holding at most
:data:`MAX_SETTLED` results, least recently served evicted first.  A
result enters it only after passing the blob's crc check on a disk hit,
or when this gateway's own run finishes, so a re-request reads no blob.
A hit from memory answers exactly as a disk hit does (``cache: "hit"``,
``serve.cache_hits``); ``serve.memory_hits`` counts the share served
from memory.  Failed jobs are never remembered, and remembered results
are shared read-only.  Only the event-loop thread touches the map.

Spec memo: ``memo`` maps the SHA-256 digest of a request body to the
job and cache key it validated to, so a repeated body is neither
decoded nor validated again; a body that fails to decode or validate is
never remembered.  A settled entry keeps its plain-JSON hit response
once it has been served, so a repeated hit is one write of stored
bytes.  The memo has the same bound, eviction order and thread as
``settled``; its key is the digest, so its size does not depend on the
bodies'.

Every decision increments a counter or histogram in an
:class:`repro.obs.metrics.Registry`, exported at ``/metrics`` as
OpenMetrics by the app layer.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.exec import ExecOptions, JobRunner, ResultCache, SimJob, git_sha
from repro.exec.job import execute_job
from repro.obs.metrics import Registry
from repro.serve.http import decode_json, json_body
from repro.serve.spec import SpecError, validate_job_spec
from repro.trace import maybe_tracer, parse_traceparent
from repro.vec import resolve_backend

#: Most settled results a gateway keeps in memory (about 1.5 KB each),
#: and most request bodies whose validated spec it remembers.
MAX_SETTLED = 1024


def _keep(entries: "OrderedDict", key, value) -> None:
    """Store *value* as the most recently used of *entries*, evicting
    the least recently used beyond :data:`MAX_SETTLED`."""
    entries[key] = value
    entries.move_to_end(key)
    if len(entries) > MAX_SETTLED:
        entries.popitem(last=False)


class Settled:
    """A result this gateway verified or ran (see the module docstring)."""

    __slots__ = ("result", "_hit_body")

    def __init__(self, result: Dict[str, Any]) -> None:
        self.result = result
        self._hit_body: Optional[bytes] = None

    def hit(self, key: str, label: str) -> Dict[str, Any]:
        """The outcome of a hit on this result."""
        return {"result": self.result,
                "meta": {"key": key[:16], "label": label, "cache": "hit",
                         "coalesced": False, "run_id": None, "wall": 0.0}}

    def hit_body(self, key: str, job: SimJob) -> bytes:
        """:meth:`hit` of *job* as a JSON response body, encoded (and
        the job's label built) on first use."""
        if self._hit_body is None:
            self._hit_body = json_body(self.hit(key, job.label))
        return self._hit_body


class QueueFull(Exception):
    """The admission queue is at capacity; renders as 503."""


class Draining(Exception):
    """The gateway is shutting down and admits no new work; 503."""


class JobError(Exception):
    """The engine failed the job (after retries); renders as 500."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclass
class ServeOptions:
    """Knobs for one gateway instance (CLI flags map 1:1)."""

    shards: int = 2                 # worker threads running JobRunners
    queue_limit: int = 64           # bounded admission queue depth
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    manifest_dir: Optional[str] = None  # per-served-run journals; None off
    job_timeout: Optional[float] = None
    drain_grace: float = 30.0       # seconds to wait for in-flight on drain
    #: Service write-ahead journal (repro.durable): every accepted job is
    #: recorded before it runs and marked finished/failed after, so a
    #: killed gateway replays the journal on boot and re-enqueues the
    #: jobs it had accepted but not finished.  None disables.
    journal_path: Optional[str] = None
    #: repro.trace head-based sampling rate for requests without their
    #: own ``traceparent`` header ([0, 1]); a request arriving with a
    #: sampled context is always traced, an unsampled one never.  0.0
    #: (the default) keeps the request path span-free.
    trace_sample: float = 0.0
    #: Span destination for traced requests that never reach a run
    #: journal (cache hits, rejections): the crc-framed
    #: ``<trace_dir>/serve_spans-<pid>-<start ms>.jsonl`` of each
    #: gateway process.  None falls back to ``manifest_dir``.
    trace_dir: Optional[str] = None


class Ticket:
    """One admitted execution; coalesced requests share it."""

    __slots__ = ("job", "key", "future", "tracer", "parent_span",
                 "queue_span")

    def __init__(self, job: SimJob, key: str,
                 future: "asyncio.Future") -> None:
        self.job = job
        self.key = key
        self.future = future
        #: repro.trace state of the admitting request (None untraced):
        #: the shard thread finishes ``queue_span`` when it picks the
        #: ticket up and parents its dispatch span on ``parent_span``.
        self.tracer = None
        self.parent_span = None
        self.queue_span = None


class Pending(NamedTuple):
    """A request the front of :meth:`Gateway.submit` admitted but could
    not answer, a miss: what its tail needs to coalesce or queue it."""

    job: SimJob
    key: str
    tracer: Any
    root: Any
    t0: float


def _swallow_outcome(future: "asyncio.Future") -> None:
    """Done-callback for recovered tickets nobody is awaiting: retrieve
    the exception (if any) so asyncio never logs it as unretrieved."""
    if future.cancelled():
        return
    future.exception()


class Gateway:
    """The simulation-as-a-service core (transport-agnostic).

    ``execute`` is pluggable exactly like :class:`JobRunner`'s — tests
    inject slow or flaky payloads to pin down coalescing and admission
    behaviour without real simulations.
    """

    def __init__(self, options: Optional[ServeOptions] = None, *,
                 execute=execute_job) -> None:
        self.options = options or ServeOptions()
        #: The simulation backend of every served run, resolved once at
        #: boot: ``REPRO_BACKEND`` when set, else the flat ``vec``
        #: kernels (digit-exact with interp).  A bad name raises
        #: :class:`repro.vec.BackendError` here, before anything binds.
        self.backend = resolve_backend(default="vec")
        self.execute = execute
        self.registry = Registry()
        self.cache = ResultCache(
            **({"root": self.options.cache_dir}
               if self.options.cache_dir else {}),
            max_bytes=self.options.cache_max_bytes)
        self.in_flight: Dict[str, Ticket] = {}
        #: Results this gateway verified or ran, by cache key, least
        #: recently served first (see the module docstring).
        self.settled: "OrderedDict[str, Settled]" = OrderedDict()
        #: The job and cache key each request body validated to, by the
        #: body's SHA-256 digest, least recently used first.
        self.memo: "OrderedDict[bytes, Tuple[SimJob, str]]" = OrderedDict()
        self.draining = False
        self.journal = None
        #: Boot-time journal replay summary (see :meth:`_recover_journal`).
        self.recovery: Dict[str, Any] = {
            "recovered": 0, "orphaned": 0, "already_cached": 0,
            "bad_lines": 0, "truncated": False}
        self.started_at = time.time()
        #: The build's git sha for ``/healthz``, resolved in :meth:`start`
        #: so that no probe waits on a ``git`` subprocess.
        self.git_sha: Optional[str] = None
        #: This process's span file for traced hits and rejections.
        self.spans_name = (f"serve_spans-{os.getpid()}-"
                           f"{int(self.started_at * 1000)}.jsonl")
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.queue: Optional[asyncio.Queue] = None
        self._shard_tasks: List["asyncio.Task"] = []
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop, resolve the build's git sha and start
        the worker shards.

        With a journal configured, the previous incarnation's journal is
        replayed first: jobs it had accepted but never finished are
        re-enqueued (``serve.recovered``), unrebuildable records are
        counted as ``serve.orphaned`` and unreadable lines as
        ``serve.journal_bad_lines``, and the journal is rewritten fresh
        seeded with the re-accepted jobs — so a crash during recovery is
        itself recoverable.
        """
        self.loop = asyncio.get_running_loop()
        self.git_sha = git_sha()
        self.queue = asyncio.Queue(maxsize=self.options.queue_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=self.options.shards,
            thread_name_prefix="serve-shard")
        self._shard_tasks = [
            asyncio.ensure_future(self._shard_loop(shard))
            for shard in range(self.options.shards)]
        if self.options.journal_path:
            self._recover_journal()

    # -- durability ----------------------------------------------------------
    SERVE_KIND = "serve"

    def _journal_record(self, rec: str, **fields) -> None:
        """Best-effort journal append; failures are counted, never raised
        (mirrors the engine: the service must outlive its log)."""
        if self.journal is None:
            return
        if not self.journal.record(rec, **fields):
            self.registry.counter("serve.journal_errors").inc()

    def _recover_journal(self) -> None:
        """Replay the previous incarnation's journal, then start fresh.

        An accepted-but-unfinished job is *incomplete*: if its result
        meanwhile sits in the cache (the crash hit between the cache
        store and the journal mark) it is already served and only
        counted; otherwise the job is rebuilt from its journaled spec
        and re-enqueued as a fresh ticket — a later identical request
        coalesces onto it.  Records that cannot be rebuilt (torn spec,
        schema drift, queue at capacity) become ``serve.orphaned``: a
        named, counted outcome instead of silent loss.
        """
        from repro.durable.journal import (RunJournal, check_header,
                                           header_record, read_records)

        path = self.options.journal_path
        records, bad_lines, truncated = read_records(path)
        self.recovery["bad_lines"] = bad_lines
        self.recovery["truncated"] = truncated
        accepted: Dict[str, Dict[str, Any]] = {}
        settled = set()
        if records and check_header(records, self.SERVE_KIND):
            for record in records[1:]:
                rec, key = record.get("rec"), record.get("key")
                if rec == "job_accepted" and key:
                    accepted[key] = record
                elif rec in ("job_finished", "job_failed"):
                    settled.add(key)
        elif records:
            # Unreadable or alien header: trust nothing in the file.
            self.recovery["orphaned"] += len(records)

        # Rewrite the journal fresh ("w"): settled history is dead
        # weight, and re-accepted jobs are re-journaled below so a crash
        # during recovery loses nothing.
        self.journal = RunJournal(path, mode="w")
        self.journal.append(header_record(
            self.SERVE_KIND, started=self.started_at, pid=os.getpid()))
        for key, record in accepted.items():
            if key in settled:
                continue
            try:
                job = SimJob.from_dict(record["job"])
            except (KeyError, TypeError, ValueError):
                self.recovery["orphaned"] += 1
                continue
            if self.cache.get(job) is not None:
                # Finished in fact, just not in the journal: the next
                # request for it is a plain cache hit.
                self.recovery["already_cached"] += 1
                self.recovery["recovered"] += 1
                continue
            ticket = Ticket(job, key, self.loop.create_future())
            # Nobody awaits a recovered ticket unless a new request
            # coalesces onto it; consume the future's outcome so an
            # execution failure never logs "exception never retrieved".
            ticket.future.add_done_callback(_swallow_outcome)
            try:
                self.queue.put_nowait(ticket)
            except asyncio.QueueFull:
                self.recovery["orphaned"] += 1
                continue
            self.in_flight[key] = ticket
            self._journal_record("job_accepted", key=key,
                                 job=record["job"], recovered=True)
            self.recovery["recovered"] += 1
        self.registry.counter("serve.recovered").inc(
            self.recovery["recovered"])
        self.registry.counter("serve.orphaned").inc(
            self.recovery["orphaned"])
        self.registry.counter("serve.journal_bad_lines").inc(bad_lines)

    async def drain(self, grace: Optional[float] = None) -> int:
        """Stop admitting, wait for in-flight work, stop the shards.

        Returns the number of tickets abandoned at the grace deadline
        (each of their waiters gets a :class:`Draining` error rather
        than a hang).
        """
        self.draining = True
        grace = self.options.drain_grace if grace is None else grace
        deadline = time.monotonic() + grace
        while self.in_flight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        abandoned = 0
        for ticket in list(self.in_flight.values()):
            if not ticket.future.done():
                ticket.future.set_exception(Draining("drain deadline"))
                abandoned += 1
            self.in_flight.pop(ticket.key, None)
        for task in self._shard_tasks:
            task.cancel()
        if self._shard_tasks:
            await asyncio.gather(*self._shard_tasks, return_exceptions=True)
        self._shard_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.journal is not None:
            self.journal.close()
        return abandoned

    # -- submission ----------------------------------------------------------
    def _start_trace(self, traceparent: Optional[str]):
        """Head-based sampling decision for one request.

        Returns ``(tracer, root_span)`` — ``(None, None)`` (the common,
        zero-overhead case) unless the request carried a sampled
        ``traceparent`` or won the ``trace_sample`` coin toss.  Malformed
        and foreign contexts are counted, never fatal.
        """
        if traceparent:
            if parse_traceparent(traceparent) is None:
                self.registry.counter("serve.trace.malformed_context").inc()
                traceparent = None
            else:
                self.registry.counter("serve.trace.foreign_context").inc()
        tracer = maybe_tracer(self.options.trace_sample, traceparent)
        if tracer is None:
            self.registry.counter("serve.trace.unsampled").inc()
            return None, None
        self.registry.counter("serve.trace.sampled").inc()
        root = tracer.start_span("http.request")
        return tracer, root

    def _keep_spans(self, tracer, path: Optional[str]) -> Optional[str]:
        """Append a traced request's spans as ``span`` records to *path*
        (its run's journal), or — for cache hits and rejections, which
        never reach a run — to this gateway's own
        ``<trace_dir>/serve_spans-<pid>-<start ms>.jsonl``: one file per
        gateway process, so a torn append from a killed one hides no
        later process's spans.  Both are crc-framed journals, written
        with fsync off: spans are diagnostics, not durable state.
        Returns the file, or None when there is nowhere to keep them."""
        from repro.durable.journal import RunJournal

        if path is None:
            root = self.options.trace_dir or self.options.manifest_dir
            if not root:
                return None
            path = os.path.join(root, self.spans_name)
        with RunJournal(path, fsync="off") as journal:
            if journal.extend(tracer.records(time.time())):
                self.registry.counter("serve.trace.flushed").inc()
        return path

    async def submit(self, spec: Any,
                     traceparent: Optional[str] = None) -> Any:
        """Validate, admit and execute one job spec; return the outcome.

        *spec* is a request body (bytes) or a decoded payload, such as
        a dict from an in-process caller.  A body this gateway validated
        before is recalled from ``memo`` by its SHA-256 digest; a new
        body is decoded first, and one that is not JSON raises
        :class:`~repro.serve.http.BadRequest` before the request is
        counted or admitted.

        The outcome dict is ``{"result": <engine result>, "meta": {...}}``
        with meta carrying cache state, run id/journal and wall
        time.  An untraced hit on a body returns that dict's JSON
        encoding instead (:func:`~repro.serve.http.json_body` bytes),
        kept with the settled result so it is encoded once.

        *traceparent* is the request's W3C trace context header, if any:
        a sampled context makes this request traced end to end — gateway
        spans here, engine and worker spans via
        :attr:`ExecOptions.trace_parent` — all under one trace id, and
        the response meta gains ``trace_id`` / ``spans`` (the journal now
        holding the tree).

        It is :meth:`submit_front` followed by :meth:`submit_tail`.

        Raises BadRequest / SpecError / QueueFull / Draining / JobError.
        """
        return await self.submit_tail(self.submit_front(spec, traceparent))

    def submit_front(self, spec: Any,
                     traceparent: Optional[str] = None) -> Any:
        """The part of :meth:`submit` that never waits: the memo, the
        ``serve.requests`` counter, trace sampling, the drain check,
        validation, then the settled and disk probes.

        Returns the outcome of a hit, or the :class:`Pending` miss that
        :meth:`submit_tail` finishes.  Raises BadRequest / SpecError /
        Draining.
        """
        t0 = time.monotonic()
        digest = None
        if isinstance(spec, bytes):
            digest = hashlib.sha256(spec).digest()
            if digest not in self.memo:
                spec = decode_json(spec)
        self.registry.counter("serve.requests").inc()
        tracer, root = self._start_trace(traceparent)
        try:
            job, key, entry = self._admit(spec, digest, tracer, root)
        except BaseException as exc:
            self._rejected(exc, tracer, root)
            raise
        if entry is None:
            return Pending(job, key, tracer, root, t0)
        self.registry.counter("serve.cache_hits").inc()
        if tracer is None and digest is not None:
            return self._answered(entry.hit_body(key, job), t0, None, None)
        return self._answered(entry.hit(key, job.label), t0, tracer, root)

    async def submit_tail(self, step: Any) -> Any:
        """The part of :meth:`submit` that waits: a :class:`Pending`
        miss joins the run in flight on its key or is queued for a
        shard, and its outcome is returned when the run settles.  Any
        other *step* is the outcome of a hit, returned as it is.

        Raises QueueFull / Draining / JobError.
        """
        if not isinstance(step, Pending):
            return step
        try:
            outcome = await self._wait(step)
        except BaseException as exc:
            self._rejected(exc, step.tracer, step.root)
            raise
        return self._answered(outcome, step.t0, step.tracer, step.root)

    def _answered(self, outcome, t0: float, tracer, root) -> Any:
        """Close a served request: its span tree and its latency."""
        if tracer is not None:
            root.finish(None)
            # The engine kept its spans in the run's journal; the
            # gateway's spans follow so one file holds the whole tree.
            meta = dict(outcome.get("meta") or {})
            meta["trace_id"] = tracer.trace_id
            meta["spans"] = self._keep_spans(tracer, meta.get("journal"))
            outcome = {"result": outcome.get("result"), "meta": meta}
        self.registry.histogram("serve.request_latency_ms").record(
            int((time.monotonic() - t0) * 1000))
        return outcome

    def _rejected(self, exc: BaseException, tracer, root) -> None:
        """Count a request that ends in *exc* and keep its spans."""
        for kind, name in ((SpecError, "serve.rejected.invalid_spec"),
                           (QueueFull, "serve.rejected.queue_full"),
                           (Draining, "serve.rejected.draining"),
                           (JobError, "serve.failures")):
            if isinstance(exc, kind):
                self.registry.counter(name).inc()
                break
        if tracer is not None:
            root.finish("error")
            self._keep_spans(tracer, None)

    def _admit(self, spec, digest, tracer, root):
        """Drain check, validation and probes: ``(job, key, entry)``,
        where *entry* is the :class:`Settled` result of a hit, else None."""
        if self.draining:
            raise Draining("gateway is draining")
        if tracer is not None:
            with tracer.span("request.parse", parent=root):
                job, key = self._validate(spec, digest)
        else:
            job, key = self._validate(spec, digest)

        probe_span = (tracer.start_span("cache.probe", parent=root)
                      if tracer is not None else None)
        entry = self.settled.get(key)
        if entry is not None:
            self.settled.move_to_end(key)
            self.registry.counter("serve.memory_hits").inc()
        else:
            cached = self.cache.get(job)
            if cached is not None:
                entry = self._remember(key, cached)
        if probe_span is not None:
            probe_span.set_attr("hit", entry is not None)
            probe_span.finish()
        return job, key, entry

    async def _wait(self, pending: "Pending") -> Dict[str, Any]:
        """Coalesce *pending* onto the run in flight on its key, or
        queue it for a shard; the run's outcome."""
        job, key = pending.job, pending.key
        tracer, root = pending.tracer, pending.root
        ticket = self.in_flight.get(key)
        if ticket is not None:
            self.registry.counter("serve.coalesced").inc()
            if tracer is not None:
                with tracer.span("coalesce.wait", parent=root,
                                 key=key[:16]):
                    outcome = await asyncio.shield(ticket.future)
            else:
                outcome = await asyncio.shield(ticket.future)
            return self._coalesced_view(outcome)

        if self.queue is None:
            raise Draining("gateway not started")
        ticket = Ticket(job, key, self.loop.create_future())
        if tracer is not None:
            ticket.tracer = tracer
            ticket.parent_span = root
            ticket.queue_span = tracer.start_span("queue.wait", parent=root)
        try:
            self.queue.put_nowait(ticket)
        except asyncio.QueueFull:
            raise QueueFull(f"admission queue at capacity "
                            f"({self.options.queue_limit})")
        self.in_flight[key] = ticket
        self.registry.counter("serve.admitted").inc()
        # Write-ahead: the job is journaled the moment it is admitted,
        # before any execution, so a crash from here on re-enqueues it.
        self._journal_record("job_accepted", key=key, job=job.to_dict())
        self.registry.histogram("serve.queue_depth").record(
            self.queue.qsize())
        return await asyncio.shield(ticket.future)

    def _validate(self, spec, digest) -> Tuple[SimJob, str]:
        """The job and cache key of *spec*.  A body :meth:`submit_front`
        left undecoded was in ``memo`` there and still is, since nothing
        was awaited in between; a decoded body is validated and, when it
        came as bytes, remembered under its *digest*."""
        if isinstance(spec, bytes):
            self.memo.move_to_end(digest)
            return self.memo[digest]
        job = validate_job_spec(spec)
        known = job, job.cache_key()
        if digest is not None:
            _keep(self.memo, digest, known)
        return known

    def _remember(self, key: str, result: Dict[str, Any]) -> Settled:
        """Keep a verified or freshly run *result*."""
        entry = Settled(result)
        _keep(self.settled, key, entry)
        return entry

    @staticmethod
    def _coalesced_view(outcome: Dict[str, Any]) -> Dict[str, Any]:
        meta = dict(outcome["meta"], coalesced=True)
        return {"result": outcome["result"], "meta": meta}

    # -- execution (shards) --------------------------------------------------
    async def _shard_loop(self, shard: int) -> None:
        while True:
            ticket = await self.queue.get()
            try:
                outcome = await self.loop.run_in_executor(
                    self._executor, self._run_ticket, ticket, shard)
            except Exception as exc:
                self._finish(ticket, error=self._as_job_error(exc))
            else:
                self._finish(ticket, outcome=outcome)
            finally:
                self.queue.task_done()

    @staticmethod
    def _as_job_error(exc: Exception) -> JobError:
        return JobError(type(exc).__name__, str(exc))

    def _run_ticket(self, ticket: Ticket, shard: int) -> Dict[str, Any]:
        """Shard-thread body: one JobRunner run for one ticket.

        A fresh runner per request keeps per-run accounting (and the run
        journal) isolated while sharing the gateway's result cache, so
        concurrent shards never fight over scheduler state.
        """
        tracer = ticket.tracer
        if ticket.queue_span is not None:
            ticket.queue_span.finish()
        dispatch_span = (tracer.start_span("dispatch",
                                           parent=ticket.parent_span,
                                           shard=shard)
                         if tracer is not None else None)
        options = ExecOptions(
            jobs=1,
            backend=self.backend,
            timeout=self.options.job_timeout,
            retries=0,
            manifest_dir=self.options.manifest_dir,
            # The gateway's own journal makes served jobs durable; the
            # run's record is for reading, so it costs no fsync.
            journal_fsync="off",
            # Traced requests hand their context across the engine
            # boundary.
            trace_parent=(tracer.traceparent(dispatch_span)
                          if tracer is not None else None),
            run_meta={"experiment": "serve",
                      "argv": ["serve", ticket.job.label],
                      "seed": ticket.job.seed})
        runner = JobRunner(options, execute=self.execute, cache=self.cache)
        t0 = time.monotonic()
        try:
            result = runner.run([ticket.job])[0]
        finally:
            if dispatch_span is not None:
                dispatch_span.finish()
        wall = time.monotonic() - t0
        self.registry.counter("serve.executed").inc()
        self.registry.histogram("serve.job_wall_ms").record(
            int(wall * 1000))
        return {"result": result,
                "meta": {"key": ticket.key[:16], "label": ticket.job.label,
                         "cache": "miss", "coalesced": False,
                         "shard": shard,
                         "run_id": (runner.last_run_id
                                    if runner.last_journal else None),
                         "journal": runner.last_journal,
                         "spans": None,
                         "wall": round(wall, 6)}}

    # -- completion ----------------------------------------------------------
    def _finish(self, ticket: Ticket, outcome=None,
                error: Optional[JobError] = None) -> None:
        self.in_flight.pop(ticket.key, None)
        if error is not None:
            self._journal_record("job_failed", key=ticket.key,
                                 error=f"{error.kind}: {error.message}")
        else:
            # The engine stored the result in the cache before returning,
            # so a journaled finish implies the result is durable.
            self._journal_record("job_finished", key=ticket.key)
            self._remember(ticket.key, outcome["result"])
        if not ticket.future.done():
            if error is not None:
                ticket.future.set_exception(error)
            else:
                ticket.future.set_result(outcome)

    # -- introspection -------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Liveness plus identity: what build, backend and subsystems
        this gateway is actually running, so smoke jobs can assert what
        they are testing instead of inferring it (git sha, simulation
        backend, every on-disk schema version, and the enabled
        observability/durability subsystems)."""
        from repro.durable.journal import JOURNAL_SCHEMA
        from repro.exec.job import SCHEMA_VERSION

        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "shards": self.options.shards,
            "queue_depth": self.queue.qsize() if self.queue else 0,
            "queue_limit": self.options.queue_limit,
            "in_flight": len(self.in_flight),
            "git_sha": self.git_sha,
            "backend": self.backend,
            "schemas": {
                "job": SCHEMA_VERSION,
                "journal": JOURNAL_SCHEMA,
            },
            "subsystems": {
                "trace": self.options.trace_sample > 0.0,
                "durable": self.journal is not None,
            },
        }
