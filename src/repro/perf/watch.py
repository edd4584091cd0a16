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

The panel is a view of the one fold of a run's records,
:class:`repro.perf.RunRecord`: everything before the first bad frame or
wrong-shaped record is rendered, everything from it on is distrusted
and counted.  A journal whose header declares an unknown schema, or a
replayed one with no intact record, is rejected with a clear error
(exit 2); one whose header was lost is tolerated with a note.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, Optional

from repro.perf.manifest import JournalError, RunRecord, journal_path_for

#: Job states, in lifecycle order.
ST_QUEUED = "queued"
ST_RUNNING = "running"
ST_DONE = "done"
ST_FAILED = "failed"
ST_CACHED = "cached"
ST_REPLAYED = "replayed"
ST_DRAINED = "drained"

_TERMINAL = (ST_DONE, ST_FAILED, ST_CACHED, ST_REPLAYED, ST_DRAINED)


def _state(cell: Dict[str, Any]) -> str:
    """A cell's panel state: the fold's status, with a finished cell
    told apart by where its result came from."""
    if cell["status"] != "ok":
        return cell["status"]
    return {"hit": ST_CACHED, "replay": ST_REPLAYED}.get(cell["cache"],
                                                         ST_DONE)


class JournalFollower(RunRecord):
    """The watch panel over an incrementally folded run record.

    Feed it text (complete lines or not — a partial trailing line is
    held until its newline arrives) and ask for :meth:`snapshot` /
    :meth:`render` at any point.
    """

    # -- derived state -------------------------------------------------------
    def _count(self, state: str) -> int:
        return sum(1 for cell in self.cells.values()
                   if _state(cell) == state)

    @property
    def total(self) -> int:
        if self.header_jobs:
            return max(self.header_jobs, len(self.cells))
        return len(self.cells)

    @property
    def complete(self) -> bool:
        """Every known job reached a terminal state (and any job exists)."""
        if not self.cells or len(self.cells) < self.total:
            return False
        return all(_state(cell) in _TERMINAL
                   for cell in self.cells.values())

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
        lookups = len(self.cells)
        walls = [cell["wall"] for cell in self.cells.values()
                 if _state(cell) == ST_DONE and cell["wall"]]
        elapsed = ((self.last_ts - self.first_ts)
                   if self.first_ts is not None and self.last_ts is not None
                   else 0.0)
        workers = self.head.get("workers") or 1
        mean_wall = sum(walls) / len(walls) if walls else 0.0
        remaining = max(self.total - finished - failed, 0)
        eta = (remaining * mean_wall / workers) if mean_wall else None
        throughput = ((done + cached + failed) / elapsed) if elapsed > 0 else None
        utilization = (min(sum(walls) / (elapsed * workers), 1.0)
                       if elapsed > 0 and walls else None)
        return {
            "schema": self.head.get("schema"),
            "git_sha": self.head.get("git_sha"),
            "experiment": self.head.get("experiment"),
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
            "distrusted_lines": self.distrusted,
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
        if self.problem:
            head.append(f"  note: {self.problem}")
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
            for cell in list(self.cells.values())[:jobs_detail]:
                wall = (f" {cell['wall']:.3f}s" if cell["wall"] else "")
                err = f" ({cell['error']})" if cell["error"] else ""
                head.append(f"    {_state(cell):<8} {cell['label']}"
                            f"{wall}{err}")
            hidden = len(self.cells) - jobs_detail
            if hidden > 0:
                head.append(f"    ... and {hidden} more")
        return "\n".join(head)


def replay(path: str) -> JournalFollower:
    """Fold an entire recorded journal; deterministic for a given file."""
    follower = JournalFollower.load(path)
    if not follower.intact:
        raise JournalError(f"{path} has no intact record (distrusted "
                           f"{follower.distrusted} line(s))")
    return follower


def follow(path: str, interval: float = 0.5,
           timeout: Optional[float] = None, stream=None,
           _sleep=time.sleep) -> JournalFollower:
    """Tail *path* until the run ends, its trusted prefix ends, or
    *timeout* seconds pass."""
    out = stream if stream is not None else sys.stderr
    follower = JournalFollower(path)
    deadline = (time.monotonic() + timeout) if timeout else None
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise JournalError(f"cannot read {path}: {exc}")
    with fh:
        while True:
            chunk = fh.read()
            if chunk:
                follower.feed_text(chunk)
            out.write(f"\r{follower.status_line():<78}")
            out.flush()
            # Once a line is distrusted the trusted prefix has ended: no
            # later record can move the panel, so there is nothing left
            # to wait for.
            if follower.complete or follower.ended or follower.distrusted:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            _sleep(interval)
    out.write("\n")
    return follower


def watch_main(argv=None) -> int:
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
    except JournalError as exc:
        print(f"watch: error: {exc}")
        return 2
    print(follower.render(jobs_detail=args.jobs_detail))
    return 0


if __name__ == "__main__":
    sys.exit(watch_main())
