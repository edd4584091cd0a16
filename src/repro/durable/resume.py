"""Kill-and-resume: rebuild a run's state from its journal and finish it.

``python -m repro.harness resume <run_id>`` is the user-facing half of
the write-ahead journal: it loads ``<runs_root>/<run_id>/journal.jsonl``,
reconstructs the exact grid the dead run was executing (every
:class:`~repro.exec.SimJob` is serialized into the journal's
``run_start`` record), and re-runs it through a fresh
:class:`~repro.exec.JobRunner` with the journal's completion state as
the resume plan:

* cells the journal marks finished are *replayed* — served from the
  result cache without re-executing (each one a ``replayed`` telemetry
  event, counted in the resumed run's manifest), so a resumed grid's
  numbers are digit-exact with an uninterrupted run by construction;
* cells that were in flight or never started re-run with their journaled
  attempt counts carried over, so the retry budget bounds total attempts
  across the original run and every resume;
* a finished cell whose cache entry was lost or quarantined simply
  re-runs — the journal is a skip-list hint, never a source of results.

Resuming a resume works the same way: each resumed run writes its own
journal under its own run id, with ``resumed_from`` linking the chain in
the manifest.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.durable.journal import (
    EXEC_KIND,
    JOURNAL_NAME,
    check_header,
    read_records,
)


class JournalError(RuntimeError):
    """A run journal could not be located, parsed or trusted."""


@dataclass
class RunState:
    """Everything the journal knows about one (possibly dead) run."""

    run_id: str
    path: str
    experiment: Optional[str] = None
    argv: Optional[List[str]] = None
    seed: Optional[int] = None
    workers: int = 1
    #: ``[{"key": <cache key>, "job": <SimJob.to_dict()>}, ...]`` in grid
    #: order, from the ``run_start`` record.
    job_records: List[Dict[str, Any]] = field(default_factory=list)
    #: cache key -> cache state ("hit"/"miss"/"replay") at finish time.
    completed: Dict[str, str] = field(default_factory=dict)
    #: cache key -> highest attempt number the journal saw started.
    attempts: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)
    drained: Set[str] = field(default_factory=set)
    #: ``run_end`` status when the run closed cleanly; None after a kill.
    ended: Optional[str] = None
    truncated: bool = False
    bad_lines: int = 0

    @property
    def keys(self) -> List[str]:
        return [record["key"] for record in self.job_records]

    @property
    def incomplete(self) -> List[str]:
        return [key for key in self.keys if key not in self.completed]

    def jobs(self) -> List:
        """Rebuild the grid's SimJobs in their original order."""
        from repro.exec import SimJob

        return [SimJob.from_dict(record["job"])
                for record in self.job_records]


def journal_path_for(ref: str, runs_root: Optional[str] = None) -> str:
    """Resolve *ref* (run id, run dir, or journal path) to a file path."""
    from repro.perf.manifest import runs_root as resolve_root

    candidates = [
        ref,
        os.path.join(ref, JOURNAL_NAME),
        os.path.join(resolve_root(runs_root), ref, JOURNAL_NAME),
    ]
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    raise JournalError(
        f"no run journal found for {ref!r} (tried the path itself, "
        f"<ref>/{JOURNAL_NAME}, and "
        f"{resolve_root(runs_root)}/<ref>/{JOURNAL_NAME})")


def load_run_state(ref: str, runs_root: Optional[str] = None) -> RunState:
    """Read and fold a run journal into a :class:`RunState`.

    Tolerant of a killed writer: a torn tail is trusted up to the last
    intact record (``truncated``/``bad_lines`` report what was dropped).
    An unreadable header — wrong kind, wrong schema, or corruption in
    the very first line — raises :class:`JournalError`.
    """
    path = journal_path_for(ref, runs_root)
    records, bad_lines, truncated = read_records(path)
    if not records or not check_header(records, EXEC_KIND):
        raise JournalError(
            f"{path} does not lead with a readable exec-run journal "
            f"header; it is either corrupt from the start or written by "
            f"an incompatible version")
    head = records[0]
    state = RunState(
        run_id=head.get("run_id") or os.path.basename(os.path.dirname(path)),
        path=path,
        experiment=head.get("experiment"),
        argv=head.get("argv"),
        seed=head.get("seed"),
        workers=head.get("workers") or 1,
        truncated=truncated,
        bad_lines=bad_lines,
    )
    for record in records[1:]:
        rec, key = record.get("rec"), record.get("key")
        if rec == "run_start":
            state.job_records = [
                entry for entry in record.get("jobs", ())
                if isinstance(entry, dict) and "key" in entry
                and "job" in entry]
        elif rec == "job_start":
            attempt = int(record.get("attempt") or 0)
            state.attempts[key] = max(state.attempts.get(key, 0), attempt)
        elif rec == "job_finish":
            state.completed[key] = record.get("cache") or "miss"
        elif rec == "job_fail":
            state.failed[key] = record.get("error") or "failed"
        elif rec == "job_drained":
            state.drained.add(key)
        elif rec == "run_end":
            state.ended = record.get("status")
    return state


# -- CLI ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness resume",
        description="continue a killed grid run exactly where it died: "
                    "journal-completed cells replay from the result "
                    "cache, the rest re-run with carried attempt counts")
    parser.add_argument("run_id",
                        help="run id, run directory, or journal path of "
                             "the interrupted run")
    parser.add_argument("--runs-root", default=None, metavar="DIR",
                        help="manifest/journal root (default results/runs "
                             "or REPRO_RUNS_DIR)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: the original "
                             "run's worker count)")
    parser.add_argument("--backend", choices=("interp", "vec"),
                        default=None,
                        help="simulation backend for the re-run cells "
                             "(results are digit-exact either way)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the completed figure results as JSON")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS", help="per-job timeout")
    parser.add_argument("--no-cache", action="store_true",
                        help="re-run every cell (disables replay; only "
                             "useful to re-validate a suspect cache)")
    parser.add_argument("--progress", action="store_true",
                        help="live progress meter on stderr")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the rendered figure (summary only)")
    return parser


def resume_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        state = load_run_state(args.run_id, args.runs_root)
    except JournalError as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    if not state.job_records:
        print(f"resume: journal {state.path} holds no run_start record "
              f"(the run died before the grid was announced); there is "
              f"nothing to resume — re-run the original command",
              file=sys.stderr)
        return 2
    if state.truncated:
        print(f"resume: journal tail is torn ({state.bad_lines} "
              f"distrusted line(s)); resuming from the intact prefix",
              file=sys.stderr)
    if state.ended == "ok" and not state.incomplete:
        print(f"resume: run {state.run_id} already completed cleanly; "
              f"replaying all {len(state.job_records)} cell(s) from the "
              f"cache anyway")

    jobs = state.jobs()
    drifted = sum(1 for job, record in zip(jobs, state.job_records)
                  if job.cache_key() != record["key"])
    if drifted:
        print(f"resume: {drifted} cell key(s) changed since the journal "
              f"was written (code/schema drift); those cells re-run from "
              f"scratch", file=sys.stderr)

    from repro.exec import ExecOptions, JobRunner, JournalAnnouncer
    from repro.perf.manifest import runs_root as resolve_root

    root = resolve_root(args.runs_root)
    options = ExecOptions(
        jobs=args.jobs or state.workers or 1,
        cache=not args.no_cache,
        timeout=args.timeout,
        progress=args.progress,
        manifest_dir=root,
        backend=args.backend,
        run_meta={"experiment": state.experiment,
                  "argv": ["resume", state.run_id],
                  "seed": state.seed,
                  "resumed_from": state.run_id},
    )
    runner = JobRunner(options, sinks=[JournalAnnouncer(root)])
    results = runner.run(jobs, resume=state)

    failures = sum(1 for result in results
                   if result is None
                   or result.get("status") == "invariant_violation")
    if not args.quiet:
        _render(state, results)
    print(runner.stats.summary())
    print(f"resumed {state.run_id}: {runner.stats.replayed} cell(s) "
          f"replayed from the journal, {runner.stats.executed} "
          f"re-executed, {failures} failed")
    if runner.last_manifest:
        print(f"run manifest: {runner.last_manifest}")
    if args.json and failures == 0:
        _export_json(state, results, args.json)
        print(f"results written to {args.json}")
    return 1 if failures else 0


def _figure_result(state: RunState, results):
    """Rebuild a FigureResult when every cell is a bar job, else None."""
    from repro.exec import bar_result_from_dict
    from repro.exec.job import KIND_BAR
    from repro.harness.runner import FigureResult

    if any(record["job"].get("kind") != KIND_BAR
           for record in state.job_records):
        return None
    figure = FigureResult(name=state.experiment or "resumed")
    figure.bars = [bar_result_from_dict(row) for row in results]
    figure.normalize()
    return figure


def _render(state: RunState, results) -> None:
    if any(result is None or result.get("status") == "invariant_violation"
           for result in results):
        return
    figure = _figure_result(state, results)
    if figure is None:
        return
    from repro.harness import report

    print(report.render_figure(
        figure, f"{figure.name} (resumed from {state.run_id})"))


def _export_json(state: RunState, results, path: str) -> None:
    import json

    figure = _figure_result(state, results)
    if figure is not None:
        from repro.harness import export

        payload = export.figure_to_json(figure)
    else:
        payload = json.dumps({"run_id": state.run_id, "results": results},
                             indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(payload)
