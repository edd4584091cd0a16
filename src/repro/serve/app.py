"""HTTP routing for the gateway: the connection protocol and its endpoints.

Routes::

    POST /v1/jobs          submit a job spec; JSON response
    GET  /healthz          liveness/readiness (503 while draining)
    GET  /metrics          OpenMetrics exposition of the serve registry
    GET  /runs/<id>        one served run's manifest.json

Each client connection is one :class:`Connection` (an
``asyncio.Protocol``) that parses requests out of its own buffer with
:func:`~repro.serve.http.parse_request`.  Inside ``data_received`` it
answers, with one write each, every request that needs no waiting: a
hit (:meth:`Gateway.submit_front` finds it settled or on disk), the
introspection endpoints and every error the front or the parser
raises.  Only a miss, which the gateway coalesces or queues
(:meth:`Gateway.submit_tail`), becomes a task, and the connection reads
nothing more until that task has answered.

Every error — malformed spec, full queue, engine failure — renders as a
structured JSON body with a definite status code; a client never sees a
traceback.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import Any, Awaitable, Dict, Optional, Set, Tuple, Union

from repro.obs.export import to_openmetrics
from repro.serve.gateway import Draining, Gateway, JobError, Pending, QueueFull
from repro.serve.http import (
    HttpError,
    Request,
    json_response,
    parse_request,
    text_response,
)
from repro.serve.spec import SpecError


def error_payload(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map a gateway exception to (status, structured JSON body)."""
    if isinstance(exc, SpecError):
        return 400, exc.to_dict()
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


class Connection(asyncio.Protocol):
    """One client connection: requests are parsed out of one buffer, and
    each that needs no waiting is answered inside ``data_received``.

    The first request that must wait, a miss, becomes the connection's
    task; reading pauses until it ends, so pipelined requests are
    answered in order and the buffer stays bounded.
    Reading also pauses while the transport's write buffer is full, and
    :meth:`drain` waits for it, as ``StreamWriter.drain`` does.
    """

    def __init__(self, app: "App") -> None:
        self.app = app
        self.transport = None
        self.buffer = bytearray()
        self.eof = False
        #: The task of the request being waited on, if any.
        self.task: Optional["asyncio.Task"] = None
        self._write_paused = False
        self._drained: Optional["asyncio.Future"] = None

    # -- the response helpers' writer -----------------------------------------
    def write(self, data: bytes) -> None:
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait until the transport takes more; ConnectionResetError
        once the connection is gone."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if self._write_paused:
            self._drained = asyncio.get_running_loop().create_future()
            await self._drained

    # -- protocol callbacks ---------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.app.connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.app.connections.discard(self)
        if self._drained is not None and not self._drained.done():
            self._drained.set_exception(
                ConnectionResetError("connection lost"))

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.task is None:
            self.serve()

    def eof_received(self) -> bool:
        self.eof = True
        if self.task is None:
            self.serve()
        return True  # the connection closes itself once it has answered

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)
        if self.task is None:
            self.transport.resume_reading()
            self.serve()

    # -- requests -------------------------------------------------------------
    def serve(self) -> None:
        """Answer the complete requests in the buffer, in order, up to
        the first that must wait, which becomes :attr:`task`."""
        while not self.transport.is_closing() and not self._write_paused:
            try:
                parsed = parse_request(self.buffer, self.eof)
            except HttpError as exc:
                json_response(self, exc.status, exc.payload,
                              keep_alive=False)
                self.transport.close()
                return
            if parsed is None:
                if self.eof:
                    self.transport.close()
                return
            request, used = parsed
            del self.buffer[:used]
            try:
                answer = self.app.answer(request, self)
            except Exception as exc:  # last resort: never a traceback
                _report(exc)
                answer = False
            if answer is True:
                continue
            if answer is False:
                self.transport.close()
                return
            self.transport.pause_reading()
            self.task = asyncio.ensure_future(self._finish(answer))
            return

    async def _finish(self, answer: Awaitable[bool]) -> None:
        """Wait for *answer*, then go on with the buffer or close.

        A client gone before its miss was answered is counted as
        ``serve.client_disconnects``; the run itself carries on, so its
        result still lands in the cache and the journal.
        """
        keep_alive = False
        try:
            keep_alive = await answer
            await self.drain()
        except ConnectionError:
            keep_alive = False
            self.app.gateway.registry.counter(
                "serve.client_disconnects").inc()
        except asyncio.CancelledError:
            keep_alive = False
            raise
        except Exception as exc:  # last resort: never a traceback
            _report(exc)
            keep_alive = False
        finally:
            self.task = None
            if not keep_alive or self.app.gateway.draining:
                self.transport.close()
        if not self._write_paused:
            self.transport.resume_reading()
        self.serve()


def _report(exc: Exception) -> None:
    print(f"serve: connection handler error: "
          f"{type(exc).__name__}: {exc}", file=sys.stderr)


class App:
    """Route table over one :class:`Gateway`, served by one
    :class:`Connection` per client."""

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self.server: Optional[asyncio.AbstractServer] = None
        self.connections: Set[Connection] = set()

    # -- server lifecycle ----------------------------------------------------
    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Start the shards and the listening socket; return (host, port)."""
        await self.gateway.start()
        # A deep accept backlog: the load benchmark opens 1000+
        # connections in one burst and must not see connection resets.
        self.server = await asyncio.get_running_loop().create_server(
            lambda: Connection(self), host, port, backlog=2048)
        bound = self.server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self, grace: Optional[float] = None) -> int:
        """Graceful stop: close the listener, drain the gateway, close
        the connections that wait on nothing (the others close once
        they have answered), then wait for the listener, which from
        Python 3.12 on waits for every connection to close."""
        server, self.server = self.server, None
        if server is not None:
            server.close()
        abandoned = await self.gateway.drain(grace)
        for connection in list(self.connections):
            if connection.task is None:
                connection.transport.close()
        if server is not None:
            await server.wait_closed()
        return abandoned

    # -- routing -------------------------------------------------------------
    def answer(self, request: Request, writer) -> Union[bool,
                                                        Awaitable[bool]]:
        """Answer *request* now when it needs no waiting, and return
        whether to keep the connection; otherwise return the awaitable
        that answers it and returns that."""
        path, method = request.path, request.method
        try:
            if path == "/v1/jobs":
                if method != "POST":
                    return self._method_not_allowed(request, writer, "POST")
                return self.handle_job(request, writer)
            if method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            if path == "/healthz":
                return self.handle_healthz(request, writer)
            if path == "/metrics":
                return self.handle_metrics(request, writer)
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

    def _error(self, request: Request, writer, exc: BaseException) -> bool:
        status, body = error_payload(exc)
        json_response(writer, status, body, keep_alive=request.keep_alive)
        return request.keep_alive

    # -- job submission ------------------------------------------------------
    def handle_job(self, request: Request, writer):
        """A hit answers now; a miss returns the awaitable that waits
        for its run (:meth:`Gateway.submit_tail`)."""
        try:
            step = self.gateway.submit_front(
                request.body, traceparent=request.headers.get("traceparent"))
        except (SpecError, Draining) as exc:
            return self._error(request, writer, exc)
        if isinstance(step, Pending):
            return self._wait_job(request, writer, step)
        json_response(writer, 200, step, keep_alive=request.keep_alive)
        return request.keep_alive

    async def _wait_job(self, request: Request, writer,
                        pending: Pending) -> bool:
        try:
            outcome = await self.gateway.submit_tail(pending)
        except (QueueFull, Draining, JobError) as exc:
            return self._error(request, writer, exc)
        json_response(writer, 200, outcome, keep_alive=request.keep_alive)
        return request.keep_alive

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

    def handle_run(self, request: Request, writer, run_id: str) -> bool:
        """``<manifest_dir>/<run_id>/manifest.json``, for a *run_id* that
        is one path component other than ``.`` and ``..``; no other file
        is read."""
        from repro.perf.manifest import ManifestError, read_manifest

        root = self.gateway.options.manifest_dir
        if root is None:
            json_response(writer, 404, {"error": "manifests_disabled"},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        try:
            if run_id in ("", ".", "..") or os.path.basename(run_id) != run_id:
                raise ManifestError(f"{run_id!r} is not a run id")
            manifest = read_manifest(os.path.join(root, run_id,
                                                  "manifest.json"))
        except ManifestError as exc:
            json_response(writer, 404, {"error": "run_not_found",
                                        "run": run_id,
                                        "message": str(exc)},
                          keep_alive=request.keep_alive)
            return request.keep_alive
        json_response(writer, 200, manifest, keep_alive=request.keep_alive)
        return request.keep_alive
