"""HTTP routing for the gateway: the asyncio server and its endpoints.

Routes::

    POST /v1/jobs          submit a job spec; JSON response, or SSE when
                           ``?stream=1`` / ``Accept: text/event-stream``
    GET  /healthz          liveness/readiness (503 while draining)
    GET  /metrics          OpenMetrics exposition of the serve registry
    GET  /stats            registry + cache + admission state as JSON
    GET  /runs             run ids of served manifests (when enabled)
    GET  /runs/<id>        one served run's manifest.json

Every error — malformed spec, rate limit, full queue, engine failure —
renders as a structured JSON body with a definite status code; a client
never sees a traceback.  SSE responses send the run's records (the same
header and job records its ``journal.jsonl`` holds) as ``record``
events, then a terminal ``result`` or ``error`` event.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Dict, Optional, Tuple

from repro.obs.export import to_openmetrics
from repro.serve.gateway import (
    Draining,
    Gateway,
    JobError,
    QueueFull,
    RateLimited,
)
from repro.serve.http import (
    HttpError,
    Request,
    SseStream,
    json_response,
    read_request,
    text_response,
)
from repro.serve.spec import SpecError


def _swallow_task_outcome(task: "asyncio.Task") -> None:
    """Done-callback for a submit task whose SSE client vanished:
    retrieve the exception so asyncio never logs it as unretrieved."""
    if task.cancelled():
        return
    task.exception()


def error_payload(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map a gateway exception to (status, structured JSON body)."""
    if isinstance(exc, SpecError):
        return 400, exc.to_dict()
    if isinstance(exc, RateLimited):
        return 429, {"error": "rate_limited", "tenant": exc.tenant,
                     "retry_after": round(exc.retry_after, 3)}
    if isinstance(exc, QueueFull):
        return 503, {"error": "queue_full", "message": str(exc)}
    if isinstance(exc, Draining):
        return 503, {"error": "draining",
                     "message": "gateway is shutting down"}
    if isinstance(exc, JobError):
        return 500, {"error": "job_failed", "kind": exc.kind,
                     "message": exc.message}
    if isinstance(exc, HttpError):
        return exc.status, exc.payload
    return 500, {"error": "internal", "kind": type(exc).__name__}


class App:
    """Route table + connection loop over one :class:`Gateway`."""

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self.server: Optional[asyncio.AbstractServer] = None

    # -- server lifecycle ----------------------------------------------------
    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Start the shards and the listening socket; return (host, port)."""
        await self.gateway.start()
        # A deep accept backlog: the load benchmark opens 1000+
        # connections in one burst and must not see connection resets.
        self.server = await asyncio.start_server(
            self.handle_connection, host, port, backlog=2048)
        bound = self.server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self, grace: Optional[float] = None) -> int:
        """Graceful stop: close the listener, then drain the gateway."""
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        return await self.gateway.drain(grace)

    # -- connection loop -----------------------------------------------------
    async def handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    json_response(writer, exc.status, exc.payload,
                                  keep_alive=False)
                    break
                if request is None:
                    break
                keep_alive = await self.dispatch(request, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:  # last-resort: never leak a traceback
            print(f"serve: connection handler error: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -------------------------------------------------------------
    async def dispatch(self, request: Request, writer) -> bool:
        """Handle one request; returns whether to keep the connection."""
        path, method = request.path, request.method
        try:
            if path == "/v1/jobs":
                if method != "POST":
                    return self._method_not_allowed(request, writer, "POST")
                if request.wants_stream():
                    return await self.handle_job_stream(request, writer)
                return await self.handle_job(request, writer)
            if method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            if path == "/healthz":
                return self.handle_healthz(request, writer)
            if path == "/metrics":
                return self.handle_metrics(request, writer)
            if path == "/stats":
                return self.handle_stats(request, writer)
            if path == "/runs":
                return self.handle_runs_index(request, writer)
            if path.startswith("/runs/"):
                return self.handle_run(request, writer, path[len("/runs/"):])
            json_response(writer, 404, {"error": "not_found", "path": path},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        except HttpError as exc:
            json_response(writer, exc.status, exc.payload,
                          keep_alive=request.keep_alive)
            return request.keep_alive

    def _method_not_allowed(self, request, writer, allowed: str) -> bool:
        json_response(writer, 405, {"error": "method_not_allowed",
                                    "allowed": allowed},
                      keep_alive=request.keep_alive)
        return request.keep_alive

    # -- job submission ------------------------------------------------------
    async def handle_job(self, request: Request, writer) -> bool:
        try:
            outcome = await self.gateway.submit(
                request.body, request.tenant,
                traceparent=request.headers.get("traceparent"))
        except (SpecError, RateLimited, QueueFull, Draining,
                JobError) as exc:
            status, body = error_payload(exc)
            json_response(writer, status, body,
                          keep_alive=request.keep_alive)
            return request.keep_alive
        json_response(writer, 200, outcome, keep_alive=request.keep_alive)
        return request.keep_alive

    async def handle_job_stream(self, request: Request, writer) -> bool:
        """SSE submission: run records live, then result/error.

        Pre-admission failures (bad spec, rate limit, full queue) are
        still plain JSON errors with their real status code — the SSE
        response only starts once the job is admitted (or served from
        cache / a coalesced run).
        """
        events: asyncio.Queue = asyncio.Queue()
        task = asyncio.ensure_future(
            self.gateway.submit(
                request.body, request.tenant, subscriber=events,
                traceparent=request.headers.get("traceparent")))
        first = asyncio.ensure_future(events.get())
        await asyncio.wait({task, first},
                           return_when=asyncio.FIRST_COMPLETED)
        if task.done() and task.exception() is not None:
            first.cancel()
            status, body = error_payload(task.exception())
            json_response(writer, status, body,
                          keep_alive=request.keep_alive)
            return request.keep_alive

        stream = SseStream(writer)
        pending = first
        try:
            await stream.start()
            while True:
                if pending is None:
                    pending = asyncio.ensure_future(events.get())
                await asyncio.wait({task, pending},
                                   return_when=asyncio.FIRST_COMPLETED)
                if pending.done():
                    record = pending.result()
                    pending = None
                    if record is None:  # end-of-stream sentinel
                        break
                    await stream.send(record, event="record")
                    continue
                # Task finished exceptionally without a sentinel.
                pending.cancel()
                pending = None
                break
            outcome = await task
            await stream.send(outcome, event="result")
        except (SpecError, RateLimited, QueueFull, Draining,
                JobError) as exc:
            _, body = error_payload(exc)
            try:
                await stream.send(body, event="error")
            except ConnectionError:
                self.gateway.registry.counter(
                    "serve.client_disconnects").inc()
                return False
        except ConnectionError:
            # The client dropped mid-stream.  The run itself keeps going
            # (its result still lands in the cache and its ticket still
            # resolves for any coalesced waiters) — only this stream dies,
            # as a counted outcome.
            self.gateway.registry.counter("serve.client_disconnects").inc()
            if pending is not None:
                pending.cancel()
            task.add_done_callback(_swallow_task_outcome)
            return False
        finally:
            if pending is not None and not pending.done():
                pending.cancel()
        try:
            await stream.close()
        except ConnectionError:
            self.gateway.registry.counter("serve.client_disconnects").inc()
        return False  # chunked stream ends the connection

    # -- introspection endpoints ---------------------------------------------
    def handle_healthz(self, request: Request, writer) -> bool:
        health = self.gateway.health()
        status = 503 if self.gateway.draining else 200
        json_response(writer, status, health, keep_alive=request.keep_alive)
        return request.keep_alive

    def handle_metrics(self, request: Request, writer) -> bool:
        text = to_openmetrics(self.gateway.registry)
        text_response(writer, 200, text,
                      content_type=("application/openmetrics-text; "
                                    "version=1.0.0; charset=utf-8"),
                      keep_alive=request.keep_alive)
        return request.keep_alive

    def handle_stats(self, request: Request, writer) -> bool:
        json_response(writer, 200, self.gateway.stats(),
                      keep_alive=request.keep_alive)
        return request.keep_alive

    def handle_runs_index(self, request: Request, writer) -> bool:
        from repro.perf.manifest import list_runs

        root = self.gateway.options.manifest_dir
        if root is None:
            json_response(writer, 404, {"error": "manifests_disabled"},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        json_response(writer, 200, {"runs": list_runs(root)},
                      keep_alive=request.keep_alive)
        return request.keep_alive

    def handle_run(self, request: Request, writer, run_id: str) -> bool:
        from repro.perf.manifest import ManifestError, load_manifest

        root = self.gateway.options.manifest_dir
        if root is None:
            json_response(writer, 404, {"error": "manifests_disabled"},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        try:
            manifest = load_manifest(run_id, root)
        except ManifestError as exc:
            json_response(writer, 404, {"error": "run_not_found",
                                        "run": run_id,
                                        "message": str(exc)},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        json_response(writer, 200, manifest, keep_alive=request.keep_alive)
        return request.keep_alive
