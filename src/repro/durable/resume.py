"""Kill-and-resume: rebuild a run's state from its journal and finish it.

``python -m repro.harness resume <run_id>`` is the user-facing half of
the write-ahead journal: it folds ``<runs_root>/<run_id>/journal.jsonl``
with the one run-record fold (:class:`repro.perf.RunRecord`), rebuilds
the exact grid the dead run was executing (every
:class:`~repro.exec.SimJob` is serialized into the journal's
``run_start`` record), and re-runs it through a fresh
:class:`~repro.exec.JobRunner` with the folded record as the resume
plan:

* cells the journal marks finished are *replayed* — served from the
  result cache without re-executing (each one a ``replayed`` telemetry
  event, counted in the resumed run's ``run_end`` stats), so a resumed
  grid's numbers are digit-exact with an uninterrupted run by
  construction;
* cells that were in flight or never started re-run with their journaled
  attempt counts carried over, so the retry budget bounds total attempts
  across the original run and every resume;
* a finished cell whose cache entry was lost or quarantined simply
  re-runs — the journal is a skip-list hint, never a source of results;
* the re-run cells run under the run's own ``settings`` from the
  journal header — backend, sanitizer, ``--trace-events`` directory and
  sampling rate — so a ``--sanitize`` run resumes sanitized
  (``--backend`` overrides the backend);
* a run without the result cache (``--no-cache``, the header's
  ``cache: false``) resumes without it: every cell re-runs, none is
  read from or written to the cache.

Resuming a resume works the same way: each resumed run writes its own
journal under its own run id, with ``resumed_from`` in its header
linking the chain.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.perf.manifest import (
    JournalError,
    RunRecord,
    journal_path_for,
    runs_root,
)


def load_run_state(ref: str, root: Optional[str] = None) -> RunRecord:
    """The folded record of the run *ref* names (run id, run directory
    or journal path), for resuming it.

    Tolerant of a killed writer: a torn tail is trusted up to the last
    intact record (``distrusted`` reports what was dropped).  A journal
    without an intact, compatible header or ``run_start`` grid raises
    :class:`JournalError`: there is nothing to resume.
    """
    return RunRecord.load(journal_path_for(ref, root)).require_grid()


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
                        help="runs root (default results/runs or "
                             "REPRO_RUNS_DIR)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: the original "
                             "run's worker count)")
    parser.add_argument("--backend", choices=("interp", "vec"),
                        default=None,
                        help="simulation backend for the re-run cells "
                             "(default: the original run's; results are "
                             "digit-exact either way)")
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
    run_id = state.run_id or os.path.basename(os.path.dirname(state.path))
    if state.distrusted:
        print(f"resume: journal tail is torn ({state.distrusted} "
              f"distrusted line(s)"
              + (f"; {state.problem}" if state.problem else "")
              + "); resuming from the intact prefix", file=sys.stderr)
    if state.status == "ok" and all(cell["status"] == "ok"
                                    for cell in state.cells.values()):
        print(f"resume: run {run_id} already completed cleanly; "
              f"replaying all {len(state.grid)} cell(s) from the "
              f"cache anyway")

    jobs = state.jobs()
    drifted = sum(1 for job, entry in zip(jobs, state.grid)
                  if job.cache_key() != entry["key"])
    if drifted:
        print(f"resume: {drifted} cell key(s) changed since the journal "
              f"was written (code/schema drift); those cells re-run from "
              f"scratch", file=sys.stderr)

    from repro.exec import ExecOptions, JobRunner, JournalAnnouncer
    from repro.vec import BackendError

    root = runs_root(args.runs_root)
    settings = state.settings
    options = ExecOptions(
        jobs=args.jobs or state.head.get("workers") or 1,
        cache=state.cache and not args.no_cache,
        timeout=args.timeout,
        progress=args.progress,
        manifest_dir=root,
        backend=args.backend or settings.get("backend"),
        sanitize=bool(settings.get("sanitize")),
        trace_events=settings.get("trace_events"),
        trace_sample=settings.get("trace_sample") or 0.0,
        run_meta={"experiment": state.head.get("experiment"),
                  "argv": ["resume", run_id],
                  "seed": state.head.get("seed"),
                  "resumed_from": run_id},
    )
    try:
        runner = JobRunner(options, sinks=[JournalAnnouncer(root)])
    except BackendError as exc:
        print(f"resume: {state.path}: journal_header.settings.backend: "
              f"{exc}", file=sys.stderr)
        return 2
    results = runner.run(jobs, resume=state)

    failures = sum(1 for result in results
                   if result is None
                   or result.get("status") == "invariant_violation")
    if not args.quiet:
        _render(state, run_id, results)
    print(runner.stats.summary())
    print(f"resumed {run_id}: {runner.stats.replayed} cell(s) "
          f"replayed from the journal, {runner.stats.executed} "
          f"re-executed, {failures} failed")
    if args.json and failures == 0:
        _export_json(state, results, args.json)
        print(f"results written to {args.json}")
    return 1 if failures else 0


def _figure_result(state: RunRecord, results):
    """Rebuild a FigureResult when every cell is a bar job, else None."""
    from repro.exec import bar_result_from_dict
    from repro.exec.job import KIND_BAR
    from repro.harness.runner import FigureResult

    if any(entry["job"]["kind"] != KIND_BAR for entry in state.grid):
        return None
    figure = FigureResult(name=state.head.get("experiment") or "resumed")
    figure.bars = [bar_result_from_dict(row) for row in results]
    figure.normalize()
    return figure


def _render(state: RunRecord, run_id: str, results) -> None:
    if any(result is None or result.get("status") == "invariant_violation"
           for result in results):
        return
    figure = _figure_result(state, results)
    if figure is None:
        return
    from repro.harness import report

    print(report.render_figure(
        figure, f"{figure.name} (resumed from {run_id})"))


def _export_json(state: RunRecord, results, path: str) -> None:
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
