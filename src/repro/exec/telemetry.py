"""Structured per-job run telemetry.

Every scheduler action emits a :class:`JobEvent` (queued / started /
cache_hit / finished / retried / failed) to the runner's sinks.  Sinks are
pluggable objects with an ``emit(event)`` method; a sink that also has a
``record(record)`` method receives every run record (the crc-framed
journal lines, see :class:`repro.exec.JobRunner`) as it is kept:

* :class:`RunTelemetry` — in-memory aggregator: counts, wall times and
  cache accounting, plus the ASCII run summary the CLI prints.
* :class:`ProgressPrinter` — single-line live progress meter.
* :class:`JournalAnnouncer` — prints each run's journal path as the run
  starts, so another terminal can ``harness watch --follow`` it.
* :class:`MultiSink` — fan one event stream out to several sinks.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, IO, List, Optional, Sequence

#: Event names, in the order a healthy job emits them.
QUEUED = "queued"
STARTED = "started"
CACHE_HIT = "cache_hit"
RETRIED = "retried"
FINISHED = "finished"
FAILED = "failed"
#: The worker pool died under a job (OOM kill, crashed interpreter);
#: unfinished jobs fall back to the serial path.
POOL_BROKEN = "pool_broken"
#: The run was asked to drain (SIGTERM/SIGINT or an explicit
#: ``request_drain()``): this job was given up without being executed.
#: In-flight jobs still finish and flush; only not-yet-started work drains.
DRAINED = "drained"
#: A resumed run (``harness resume``) served this job from the result
#: cache because the interrupted run's journal marked it finished — the
#: cell was not re-executed.  Followed by FINISHED with ``cache="replay"``.
REPLAYED = "replayed"


@functools.lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """The HEAD sha of the checkout this package was loaded from, or None
    when it was not loaded from a git checkout.  git runs in the
    package's own directory: the working directory may be any other
    repository, or none."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class JobEvent:
    """One scheduler observation about one job attempt."""

    event: str
    key: str                    # cache key (short id of the job)
    label: str                  # human-readable job identity
    timestamp: float
    attempt: int = 0
    wall: Optional[float] = None       # seconds, finished/failed only
    cache: Optional[str] = None        # "hit" | "miss" | "off"
    error: Optional[str] = None        # retried/failed only
    #: Structured InvariantViolation payload (failed jobs whose simulation
    #: tripped a repro.sanitize check), as InvariantViolation.to_dict().
    violation: Optional[Dict[str, Any]] = None
    #: Path of the repro.obs event trace this job wrote (finished jobs
    #: executed under --trace-events only).
    trace: Optional[str] = None
    #: Simulation backend an executed bar job ran on ("interp" | "vec").
    #: None on cache hits and non-bar jobs.
    backend: Optional[str] = None
    #: repro.trace span id of this job's span, when the run is sampled
    #: (``--trace-sample``) — joins the job record to the run's ``span``
    #: records.  None when tracing is off.
    span: Optional[str] = None

    def to_json(self) -> str:
        data = {k: v for k, v in asdict(self).items() if v is not None}
        data["key"] = self.key[:16]
        return json.dumps(data, sort_keys=True)


class MultiSink:
    def __init__(self, sinks: Sequence) -> None:
        self.sinks = list(sinks)

    def emit(self, event: JobEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)


class CollectingSink:
    """Keep every event in memory (tests, programmatic inspection)."""

    def __init__(self) -> None:
        self.events: List[JobEvent] = []

    def emit(self, event: JobEvent) -> None:
        self.events.append(event)

    def names(self) -> List[str]:
        return [event.event for event in self.events]


class ProgressPrinter:
    """One-line live progress: ``[done/total] hits=H label``."""

    def __init__(self, total: int, stream: Optional[IO[str]] = None) -> None:
        self.total = total
        self.done = 0
        self.hits = 0
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: JobEvent) -> None:
        if event.event == CACHE_HIT:
            self.hits += 1
        if event.event not in (FINISHED, FAILED):
            return
        self.done += 1
        line = (f"[{self.done}/{self.total}] hits={self.hits} "
                f"{event.event} {event.label}")
        end = "\n" if self.done == self.total else "\r"
        self.stream.write(f"\r{line:<78}{end}")
        self.stream.flush()


class JournalAnnouncer:
    """Prints ``run journal: <path>`` when a run under *root* starts.

    A record sink: the path is announced on the ``run_start`` record,
    by which point the journal file holds its header and the grid, so a
    second terminal can attach ``harness watch --follow`` right away.
    """

    def __init__(self, root: str, stream: Optional[IO[str]] = None) -> None:
        self.root = root
        self.stream = stream if stream is not None else sys.stdout

    def emit(self, event: JobEvent) -> None:
        pass

    def record(self, record: Dict[str, Any]) -> None:
        if record["rec"] == "run_start":
            from repro.durable.journal import JOURNAL_NAME

            path = os.path.join(self.root, record["run_id"], JOURNAL_NAME)
            print(f"run journal: {path}", file=self.stream, flush=True)


@dataclass
class RunTelemetry:
    """Aggregate view of one scheduler run (also usable as a sink)."""

    jobs: int = 0
    finished: int = 0
    failed: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0            # jobs that actually simulated
    pool_breaks: int = 0         # worker pools lost to dead workers
    violations: int = 0          # failures carrying an InvariantViolation
    drained: int = 0             # jobs given up to a graceful drain
    replayed: int = 0            # cells skipped via journal on a resume
    journal_errors: int = 0      # run-journal appends that failed (folded
                                 # in by the engine, not event-driven)
    job_walls: List[float] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)
    wall: float = 0.0

    def emit(self, event: JobEvent) -> None:
        if event.event == QUEUED:
            self.jobs += 1
        elif event.event == DRAINED:
            self.drained += 1
        elif event.event == STARTED:
            self.executed += 1
        elif event.event == CACHE_HIT:
            self.cache_hits += 1
        elif event.event == RETRIED:
            self.retries += 1
        elif event.event == FINISHED:
            self.finished += 1
            if event.cache == "miss":
                self.cache_misses += 1
            if event.wall is not None:
                self.job_walls.append(event.wall)
        elif event.event == FAILED:
            self.failed += 1
            if event.violation is not None:
                self.violations += 1
        elif event.event == POOL_BROKEN:
            self.pool_breaks += 1
        elif event.event == REPLAYED:
            self.replayed += 1

    def absorb(self, other: "RunTelemetry") -> None:
        """Add *other*'s counts, walls and wall time into this one."""
        for spec in fields(self):
            if spec.name != "started_at":
                setattr(self, spec.name,
                        getattr(self, spec.name) + getattr(other, spec.name))

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        walls = self.job_walls
        return {
            "jobs": self.jobs,
            "finished": self.finished,
            "failed": self.failed,
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "executed": self.executed,
            "pool_breaks": self.pool_breaks,
            "violations": self.violations,
            "drained": self.drained,
            "replayed": self.replayed,
            "journal_errors": self.journal_errors,
            "wall_seconds": round(self.wall, 4),
            "mean_job_seconds": (round(sum(walls) / len(walls), 4)
                                 if walls else 0.0),
        }

    def summary(self) -> str:
        """ASCII run summary for the CLI footer."""
        data = self.as_dict()
        lines = [
            "run summary",
            f"  jobs        {data['jobs']} "
            f"({data['finished']} ok, {data['failed']} failed, "
            f"{data['retries']} retries)",
            f"  cache       {data['cache_hits']} hits / "
            f"{data['cache_misses']} misses "
            f"({100.0 * data['cache_hit_rate']:.0f}% hit rate)",
            f"  wall        {data['wall_seconds']:.2f}s total, "
            f"{data['mean_job_seconds']:.3f}s mean/job "
            f"over {data['executed']} simulated",
        ]
        return "\n".join(lines)
