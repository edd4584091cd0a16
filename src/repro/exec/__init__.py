"""repro.exec — parallel experiment execution with content-addressed caching.

The harness's figures are grids of independent, deterministic simulation
cells; this package turns each cell into a :class:`SimJob`, schedules the
grid through a :class:`JobRunner` (process pool, retries, per-job
timeout, serial fallback), memoizes results in an on-disk
:class:`ResultCache` keyed by the job's content hash, reports structured
:mod:`~repro.exec.telemetry` events for every scheduling step, and keeps
each run's record (journal and manifest, see :mod:`repro.exec.engine`).

``python -m repro.exec cache stats|purge`` manages the on-disk store.
"""

from repro.durable.journal import atomic_write_json
from repro.exec.cache import (
    CacheStats,
    ResultCache,
    default_cache_dir,
    parse_size,
)
from repro.exec.engine import (
    ExecOptions,
    JobFailedError,
    JobRunner,
    JobTimeoutError,
    TransientJobError,
)
from repro.exec.job import (
    SCHEMA_VERSION,
    SimJob,
    bar_result_from_dict,
    execute_job,
)
from repro.exec.telemetry import (
    DRAINED,
    REPLAYED,
    CollectingSink,
    JobEvent,
    JournalAnnouncer,
    MultiSink,
    ProgressPrinter,
    RunTelemetry,
    git_sha,
)

__all__ = [
    "DRAINED",
    "REPLAYED",
    "atomic_write_json",
    "git_sha",
    "SCHEMA_VERSION",
    "SimJob",
    "execute_job",
    "bar_result_from_dict",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "parse_size",
    "ExecOptions",
    "JobRunner",
    "TransientJobError",
    "JobTimeoutError",
    "JobFailedError",
    "JobEvent",
    "JournalAnnouncer",
    "CollectingSink",
    "MultiSink",
    "ProgressPrinter",
    "RunTelemetry",
]
