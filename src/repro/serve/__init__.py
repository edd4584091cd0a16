"""repro.serve — simulation-as-a-service gateway over the exec engine.

A long-lived asyncio HTTP/JSON service that fronts the repro.exec
engine: typed job-spec validation (:mod:`~repro.serve.spec`), a
content-addressed cache probe, request coalescing of identical
in-flight cells, a bounded admission queue, worker shards running
:class:`~repro.exec.JobRunner`, an OpenMetrics ``/metrics`` endpoint,
and graceful drain on SIGTERM (:mod:`~repro.serve.gateway`,
:mod:`~repro.serve.app`).

A served result is byte-identical to the same cell run through
``python -m repro.harness`` — specs build jobs through the exact CLI
constructors, so HTTP and CLI invocations share one cache key, and the
run-manifest config digest proves the equivalence.

``python -m repro.serve`` runs the server;
:class:`repro.serve.client.ServeClient` is the blocking client used by
the tests, the bench and the CI smoke job.  The package re-exports
nothing: a client needs no gateway and the gateway no client, so each
imports the submodules it runs.
"""
