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
  cache-hit ratio, throughput, ETA (:mod:`repro.perf.watch`).

The ``perf-gate`` CI job wires these together: hotpath timings of the
merge base and of the change, recorded alternately in one sitting, are
``compare``'d (fail >25%, warn >10%), and the run manifests are
uploaded as an artifact.

The package re-exports only the manifest API, which every importer
needs (the engine and the gateway write manifests, the readers resolve
run ids through it); ``compare`` and ``watch`` load with their commands.
"""

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

__all__ = [
    "DEFAULT_RUNS_ROOT",
    "ENV_RUNS_DIR",
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "config_digest",
    "fold_manifest",
    "list_runs",
    "load_manifest",
    "machine_fingerprint",
    "new_run_id",
    "runs_root",
    "write_run_manifest",
]
