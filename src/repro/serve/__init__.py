"""repro.serve — simulation-as-a-service gateway over the exec engine.

A long-lived asyncio HTTP/JSON service that fronts the repro.exec
engine: typed job-spec validation (:mod:`~repro.serve.spec`), a
content-addressed cache probe, per-tenant token-bucket rate limiting,
request coalescing of identical in-flight cells, a bounded admission
queue, worker shards running :class:`~repro.exec.JobRunner`, streaming
progress as the run's journal records (SSE), an OpenMetrics
``/metrics`` endpoint, and graceful drain on SIGTERM.

A served result is byte-identical to the same cell run through
``python -m repro.harness`` — specs build jobs through the exact CLI
constructors, so HTTP and CLI invocations share one cache key, and the
run-manifest config digest proves the equivalence.

``python -m repro.serve`` runs the server; :class:`ServeClient` is the
blocking client used by the tests, the bench and the CI smoke job.
"""

from repro.serve.client import ServeClient, mint_traceparent
from repro.serve.gateway import (
    Draining,
    Gateway,
    JobError,
    QueueFull,
    RateLimited,
    ServeOptions,
    TokenBucket,
)
from repro.serve.spec import (
    MAX_INSTRUCTIONS,
    SpecError,
    job_to_spec,
    validate_job_spec,
)

__all__ = [
    "Draining",
    "Gateway",
    "JobError",
    "MAX_INSTRUCTIONS",
    "QueueFull",
    "RateLimited",
    "ServeClient",
    "ServeOptions",
    "SpecError",
    "TokenBucket",
    "job_to_spec",
    "mint_traceparent",
    "validate_job_spec",
]
