"""repro.perf — the cross-run performance observatory.

The paper's thesis is that memory-performance feedback must be cheap,
continuous and actionable; :mod:`repro.obs` (PR 4) delivers that *within*
a run, and this package delivers it *across* runs:

* **run manifests** — every :class:`repro.exec.JobRunner` grid run with
  ``manifest_dir`` set (the harness CLI default) folds its run journal
  into ``results/runs/<run_id>/manifest.json``: git sha, config digest,
  seed, machine fingerprint, per-cell wall/simulated stats, obs metrics
  digests and the journal path (:mod:`repro.perf.manifest`);
* **compare** — ``python -m repro.harness compare RUN_A RUN_B`` diffs
  two manifests (or BENCH snapshots, or ``--trace-dir`` obs artifact
  directories): simulated statistics digit-exact — any drift is a
  correctness alarm — and wall times through repeated-cell bootstrap
  confidence intervals (:mod:`repro.perf.compare`);
* **watch** — ``python -m repro.harness watch <run_id|journal>`` follows
  a running grid's journal live: per-job state, worker utilization,
  cache-hit ratio, throughput, ETA (:mod:`repro.perf.watch`);
* **trajectory** — bench runs append (never overwrite) one line per run
  to ``BENCH_trajectory.jsonl`` so the timing history survives snapshot
  updates (:mod:`repro.perf.trajectory`).

The ``perf-gate`` CI job wires these together: fresh hotpath timings are
``compare``'d against ``BENCH_hotpath.json`` (fail >25%, warn >10%) and
the run manifest is uploaded as an artifact, so every future perf PR is
measured against an enforced baseline instead of a hand-edited JSON.
"""

from repro.perf.compare import (
    DEFAULT_FAIL_ABOVE,
    DEFAULT_WARN_ABOVE,
    bootstrap_ci,
    classify_ratio,
    compare_bench,
    compare_main,
    compare_manifests,
    compare_trace_dirs,
    render_compare,
)
from repro.perf.manifest import (
    DEFAULT_RUNS_ROOT,
    ENV_RUNS_DIR,
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    ManifestError,
    config_digest,
    fold_manifest,
    list_runs,
    load_manifest,
    machine_fingerprint,
    new_run_id,
    runs_root,
    write_run_manifest,
)
from repro.perf.trajectory import (
    DEFAULT_TRAJECTORY_NAME,
    TRAJECTORY_SCHEMA,
    append_bench_run,
    append_trajectory,
    read_trajectory,
    trajectory_path_for,
)
from repro.perf.watch import (
    JournalFollower,
    WatchError,
    follow,
    replay,
    watch_main,
)

__all__ = [
    "DEFAULT_FAIL_ABOVE",
    "DEFAULT_RUNS_ROOT",
    "DEFAULT_TRAJECTORY_NAME",
    "DEFAULT_WARN_ABOVE",
    "ENV_RUNS_DIR",
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "JournalFollower",
    "TRAJECTORY_SCHEMA",
    "WatchError",
    "append_bench_run",
    "append_trajectory",
    "bootstrap_ci",
    "classify_ratio",
    "compare_bench",
    "compare_main",
    "compare_manifests",
    "compare_trace_dirs",
    "config_digest",
    "fold_manifest",
    "follow",
    "list_runs",
    "load_manifest",
    "machine_fingerprint",
    "new_run_id",
    "read_trajectory",
    "render_compare",
    "replay",
    "runs_root",
    "trajectory_path_for",
    "watch_main",
    "write_run_manifest",
]
