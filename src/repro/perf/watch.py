"""``python -m repro.harness watch <run_id|journal>`` — live grid monitor.

Every engine run with a run directory appends its records to a
crc-framed ``journal.jsonl`` (see :mod:`repro.durable.journal`); the
harness prints ``run journal: <path>`` as the run starts.  ``watch``
follows that file while a grid runs — from another terminal, over NFS,
wherever — and renders per-job state, worker utilization, cache-hit
ratio, throughput and an ETA without touching the run itself.

All derived numbers come from the **record timestamps in the journal**,
never from the watcher's own clock, so replaying a recorded journal
(the default when ``--follow`` is not given) produces the exact same
panel every time — which is how the tests pin this code down.

Records are read by the journal's own scanner: everything before the
first bad frame is rendered, everything from it on is distrusted and
counted.  A journal whose header declares an unknown schema is rejected
with a clear error (exit 2); one whose header was lost is tolerated with
a note.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from repro.durable.journal import (
    EXEC_KIND,
    HEADER_RECORD,
    JOURNAL_SCHEMA,
    RecordScanner,
)

#: Job states, in lifecycle order.
ST_QUEUED = "queued"
ST_RUNNING = "running"
ST_DONE = "done"
ST_FAILED = "failed"
ST_CACHED = "cached"
ST_REPLAYED = "replayed"
ST_DRAINED = "drained"


class WatchError(ValueError):
    """The journal cannot be followed (unknown schema, unreadable file)."""


def _label(entry: Dict[str, Any]) -> Optional[str]:
    """A ``run_start`` grid entry's job label (None if it won't parse)."""
    from repro.exec.job import SimJob

    try:
        return SimJob.from_dict(entry["job"]).label
    except (KeyError, TypeError, ValueError):
        return None


class JournalFollower:
    """Incremental reducer of a run journal.

    Feed it text (complete lines or not — a partial trailing line is
    held until its newline arrives) and ask for :meth:`snapshot` /
    :meth:`render` at any point.
    """

    def __init__(self) -> None:
        self.header: Optional[Dict[str, Any]] = None
        #: Sum of the header ``jobs`` counts, should several runs'
        #: journals be fed to one follower.
        self.header_jobs = 0
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.order: List[str] = []
        self.retries = 0
        self.pool_breaks = 0
        #: True once a ``run_end`` record arrived: the run is over, even
        #: if a failure left some of its jobs unfinished.
        self.ended = False
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.last_label: Optional[str] = None
        self._scanner = RecordScanner()

    @property
    def distrusted_lines(self) -> int:
        return self._scanner.bad_lines

    # -- ingestion -----------------------------------------------------------
    def feed_text(self, text: str) -> None:
        """Consume a chunk of the journal (any split is fine)."""
        for record in self._scanner.feed(text):
            self._apply(record)

    def close(self) -> None:
        """End of input: a trailing line without its newline is torn."""
        for record in self._scanner.close():
            self._apply(record)

    def _job(self, key: str, label: Optional[str]) -> Dict[str, Any]:
        job = self.jobs.get(key)
        if job is None:
            job = self.jobs[key] = {"label": label or key[:16],
                                    "state": ST_QUEUED, "wall": None,
                                    "attempts": 0, "error": None}
            self.order.append(key)
        return job

    def _apply(self, record: Dict[str, Any]) -> None:
        rec = record.get("rec")
        if rec == HEADER_RECORD:
            if record.get("kind") != EXEC_KIND:
                raise WatchError(
                    f"journal kind {record.get('kind')!r} is not an "
                    f"engine run ({EXEC_KIND!r})")
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise WatchError(
                    f"journal declares schema {schema!r}; this build "
                    f"understands schema {JOURNAL_SCHEMA} — regenerate "
                    f"the run or upgrade")
            if self.header is None:
                self.header = record
            self.header_jobs += record.get("jobs") or 0
            return
        if rec == "span":
            return  # spans land at run end, after the grid's timeline
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            if self.first_ts is None:
                self.first_ts = ts
            self.last_ts = ts
        if rec == "run_start":
            for entry in record.get("jobs") or ():
                if isinstance(entry, dict) and "key" in entry:
                    self._job(entry["key"], _label(entry))
            return
        if rec == "run_end":
            self.ended = True
            return
        key = record.get("key")
        if key is None:
            return
        job = self._job(key, record.get("label"))
        if rec == "job_start":
            job["state"] = ST_RUNNING
            job["attempts"] = max(job["attempts"], record.get("attempt", 0))
        elif rec == "job_finish":
            cache = record.get("cache")
            job["state"] = (ST_CACHED if cache == "hit" else
                            ST_REPLAYED if cache == "replay" else ST_DONE)
            job["wall"] = record.get("wall")
            self.last_label = job["label"]
        elif rec == "job_fail":
            job["state"] = ST_FAILED
            job["error"] = record.get("error")
            self.last_label = job["label"]
        elif rec == "job_retry":
            self.retries += 1
        elif rec == "pool_broken":
            self.pool_breaks += 1
        elif rec == "job_drained":
            job["state"] = ST_DRAINED
            self.last_label = job["label"]

    # -- derived state -------------------------------------------------------
    def _count(self, state: str) -> int:
        return sum(1 for job in self.jobs.values() if job["state"] == state)

    @property
    def total(self) -> int:
        if self.header_jobs:
            return max(self.header_jobs, len(self.jobs))
        return len(self.jobs)

    @property
    def complete(self) -> bool:
        """Every known job reached a terminal state (and any job exists)."""
        if not self.jobs or len(self.jobs) < self.total:
            return False
        return all(job["state"] in (ST_DONE, ST_FAILED, ST_CACHED,
                                    ST_REPLAYED, ST_DRAINED)
                   for job in self.jobs.values())

    def snapshot(self) -> Dict[str, Any]:
        """The panel's numbers, derived purely from stream timestamps."""
        done = self._count(ST_DONE)
        cached = self._count(ST_CACHED)
        replayed = self._count(ST_REPLAYED)
        failed = self._count(ST_FAILED)
        running = self._count(ST_RUNNING)
        # Journal replays (resumed runs) count as finished work for
        # progress and ETA — they will never run again — but are kept
        # out of the throughput numerator: their wall is 0, and folding
        # them in would claim a resumed grid simulates faster than it
        # does.
        finished = done + cached + replayed
        lookups = len(self.jobs)
        walls = [job["wall"] for job in self.jobs.values()
                 if job["state"] == ST_DONE and job["wall"]]
        elapsed = ((self.last_ts - self.first_ts)
                   if self.first_ts is not None and self.last_ts is not None
                   else 0.0)
        workers = (self.header or {}).get("workers") or 1
        mean_wall = sum(walls) / len(walls) if walls else 0.0
        remaining = max(self.total - finished - failed, 0)
        eta = (remaining * mean_wall / workers) if mean_wall else None
        throughput = ((done + cached + failed) / elapsed) if elapsed > 0 else None
        utilization = (min(sum(walls) / (elapsed * workers), 1.0)
                       if elapsed > 0 and walls else None)
        return {
            "schema": (self.header or {}).get("schema"),
            "git_sha": (self.header or {}).get("git_sha"),
            "experiment": (self.header or {}).get("experiment"),
            "workers": workers,
            "total": self.total,
            "queued": self._count(ST_QUEUED),
            "running": running,
            "done": done,
            "cached": cached,
            "replayed": replayed,
            "failed": failed,
            "drained": self._count(ST_DRAINED),
            "retries": self.retries,
            "pool_breaks": self.pool_breaks,
            "distrusted_lines": self.distrusted_lines,
            "cache_hit_ratio": (cached / lookups) if lookups else 0.0,
            "elapsed": round(elapsed, 4),
            "mean_wall": round(mean_wall, 4),
            "throughput": (round(throughput, 4)
                           if throughput is not None else None),
            "eta": round(eta, 4) if eta is not None else None,
            "utilization": (round(utilization, 4)
                            if utilization is not None else None),
            "complete": self.complete,
            "last_label": self.last_label,
        }

    # -- rendering -----------------------------------------------------------
    def status_line(self) -> str:
        """One-line live view (the ``--follow`` refresh)."""
        snap = self.snapshot()
        finished = snap["done"] + snap["cached"] + snap["replayed"]
        bits = [f"[{finished + snap['failed']}/{snap['total']}]",
                f"run {snap['running']}",
                f"hit {snap['cached']}"]
        if snap["replayed"]:
            bits.append(f"replay {snap['replayed']}")
        if snap["failed"]:
            bits.append(f"FAILED {snap['failed']}")
        if snap["throughput"] is not None:
            bits.append(f"{snap['throughput']:.2f} jobs/s")
        if snap["eta"] is not None:
            bits.append(f"eta ~{snap['eta']:.1f}s")
        if snap["last_label"]:
            bits.append(snap["last_label"])
        return " ".join(bits)

    def render(self, jobs_detail: int = 0) -> str:
        """The multi-line panel (replay mode / final screen)."""
        snap = self.snapshot()
        head = ["watch — "
                + (f"{snap['experiment']} " if snap["experiment"] else "")
                + f"{snap['total']} jobs, {snap['workers']} worker(s)"]
        if self.header is None:
            head.append("  note: headerless journal (its header record "
                        "is missing)")
        else:
            sha = snap["git_sha"] or "unknown"
            head.append(f"  schema {snap['schema']}, git {sha[:12]}")
        if snap["distrusted_lines"]:
            head.append(f"  note: distrusted {snap['distrusted_lines']} "
                        f"line(s) from the first bad frame on")
        finished = snap["done"] + snap["cached"] + snap["replayed"]
        head.append(
            f"  state       {finished} finished "
            f"({snap['cached']} cache hits, "
            f"{100.0 * snap['cache_hit_ratio']:.0f}% hit ratio), "
            f"{snap['failed']} failed, {snap['running']} running, "
            f"{snap['queued']} queued"
            + (f", {snap['replayed']} journal-replayed"
               if snap["replayed"] else "")
            + (f", {snap['drained']} drained" if snap["drained"] else ""))
        if snap["retries"] or snap["pool_breaks"]:
            head.append(f"  recoveries  {snap['retries']} retries, "
                        f"{snap['pool_breaks']} pool break(s)")
        line = f"  timing      {snap['elapsed']:.2f}s elapsed"
        if snap["mean_wall"]:
            line += f", {snap['mean_wall']:.3f}s mean/job"
        if snap["throughput"] is not None:
            line += f", {snap['throughput']:.2f} jobs/s"
        head.append(line)
        extras = []
        if snap["utilization"] is not None:
            extras.append(f"utilization {100.0 * snap['utilization']:.0f}%")
        if snap["eta"] is not None:
            extras.append(f"eta ~{snap['eta']:.1f}s")
        extras.append("complete" if snap["complete"] else "in progress")
        head.append("  status      " + ", ".join(extras))
        if jobs_detail:
            head.append("  jobs:")
            for key in self.order[:jobs_detail]:
                job = self.jobs[key]
                wall = (f" {job['wall']:.3f}s" if job["wall"] else "")
                err = f" ({job['error']})" if job["error"] else ""
                head.append(f"    {job['state']:<8} {job['label']}"
                            f"{wall}{err}")
            hidden = len(self.order) - jobs_detail
            if hidden > 0:
                head.append(f"    ... and {hidden} more")
        return "\n".join(head)


def replay(path: str) -> JournalFollower:
    """Reduce an entire recorded journal; deterministic for a given file."""
    follower = JournalFollower()
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            follower.feed_text(fh.read())
    except OSError as exc:
        raise WatchError(f"cannot read {path}: {exc}")
    follower.close()
    return follower


def follow(path: str, interval: float = 0.5,
           timeout: Optional[float] = None, stream=None,
           _sleep=time.sleep) -> JournalFollower:
    """Tail *path* until the run ends (or *timeout* seconds pass)."""
    out = stream if stream is not None else sys.stderr
    follower = JournalFollower()
    deadline = (time.monotonic() + timeout) if timeout else None
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise WatchError(f"cannot read {path}: {exc}")
    with fh:
        while True:
            chunk = fh.read()
            if chunk:
                follower.feed_text(chunk)
            out.write(f"\r{follower.status_line():<78}")
            out.flush()
            if follower.complete or follower.ended:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            _sleep(interval)
    out.write("\n")
    return follower


def watch_main(argv=None) -> int:
    from repro.durable.resume import JournalError, journal_path_for

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness watch",
        description="Follow an engine run's journal: per-job state, "
                    "utilization, cache hits, throughput and ETA.")
    parser.add_argument("run", metavar="RUN",
                        help="run id, run directory or journal.jsonl path "
                             "of a running (or finished) engine run")
    parser.add_argument("--follow", action="store_true",
                        help="keep tailing until the run ends "
                             "(default: replay what is there and exit)")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="poll interval in seconds (default 0.5)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="give up following after this many seconds")
    parser.add_argument("--jobs-detail", type=int, default=0, metavar="N",
                        help="also list per-job state for the first N jobs")
    args = parser.parse_args(argv)

    try:
        path = journal_path_for(args.run)
        if args.follow:
            follower = follow(path, interval=args.interval,
                              timeout=args.timeout)
        else:
            follower = replay(path)
    except (JournalError, WatchError) as exc:
        print(f"watch: error: {exc}")
        return 2
    print(follower.render(jobs_detail=args.jobs_detail))
    return 0


if __name__ == "__main__":
    sys.exit(watch_main())
