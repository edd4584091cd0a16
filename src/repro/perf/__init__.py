"""repro.perf — the cross-run performance observatory.

The paper's thesis is that memory-performance feedback must be cheap,
continuous and actionable; :mod:`repro.obs` (PR 4) delivers that *within*
a run, and this package delivers it *across* runs:

* **the run record** — every :class:`repro.exec.JobRunner` grid run with
  ``manifest_dir`` set (the harness CLI default) writes one file,
  ``results/runs/<run_id>/journal.jsonl``; :func:`journal_path_for`
  finds it from a run id, run directory or path, and one
  :class:`RunRecord` folds it into the run's provenance (git sha, config
  digest, seed, machine fingerprint, settings) and per-cell wall,
  simulated stats and obs metrics digests (:mod:`repro.perf.manifest`);
* **compare** — ``python -m repro.harness compare RUN_A RUN_B`` diffs
  two runs (or BENCH snapshots): simulated statistics and metrics
  digests digit-exact — any drift is a correctness alarm — and wall
  times through repeated-cell bootstrap confidence intervals
  (:mod:`repro.perf.compare`);
* **watch** — ``python -m repro.harness watch <run_id|journal>`` follows
  a running grid's journal live: per-job state, worker utilization,
  cache-hit ratio, throughput, ETA (:mod:`repro.perf.watch`).

The ``perf-gate`` CI job wires these together: hotpath timings of the
merge base and of the change, recorded alternately in one sitting, are
``compare``'d (fail >25%, warn >10%), and the run journals are
uploaded as an artifact.

The package re-exports only the run-record API, which every importer
needs (the engine mints run ids, the readers resolve and fold runs
through it); ``compare`` and ``watch`` load with their commands.
"""

from repro.perf.manifest import (
    DEFAULT_RUNS_ROOT,
    ENV_RUNS_DIR,
    JournalError,
    RunRecord,
    config_digest,
    journal_path_for,
    machine_fingerprint,
    new_run_id,
    runs_root,
)

__all__ = [
    "DEFAULT_RUNS_ROOT",
    "ENV_RUNS_DIR",
    "JournalError",
    "RunRecord",
    "config_digest",
    "journal_path_for",
    "machine_fingerprint",
    "new_run_id",
    "runs_root",
]
