"""A small blocking client for the gateway (stdlib ``http.client``).

For tests, the smoke script and notebook-style use.  One
:class:`ServeClient` holds one keep-alive connection; every method
returns parsed JSON (or text for ``/metrics``) plus the HTTP status, so
callers can assert on structured error bodies as easily as on results.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional, Tuple

from repro.trace import TraceContext, format_traceparent, new_span_id, new_trace_id


def mint_traceparent(sampled: bool = True) -> str:
    """A fresh client-side ``traceparent`` header value.

    Submitting with this makes the request traced end to end (gateway →
    engine → workers) under the returned header's trace id; pass
    ``sampled=False`` to assert the unsampled path stays span-free.
    """
    return format_traceparent(
        TraceContext(new_trace_id(), new_span_id(), sampled=sampled))


class ServeClient:
    """Blocking keep-alive client for one gateway endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                traceparent: Optional[str] = None
                ) -> Tuple[int, bytes, Dict[str, str]]:
        """One request/response cycle; reconnects once on a dead socket."""
        headers = {}
        if traceparent:
            headers["traceparent"] = traceparent
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for retry in (True, False):
            conn = self._connection()
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                return (response.status, payload,
                        {k.lower(): v for k, v in response.getheaders()})
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if not retry:
                    raise
        raise AssertionError("unreachable")

    def json(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None,
             traceparent: Optional[str] = None) -> Tuple[int, Any]:
        status, payload, _ = self.request(method, path, body,
                                          traceparent=traceparent)
        return status, json.loads(payload.decode("utf-8"))

    # -- endpoints -----------------------------------------------------------
    def submit(self, spec: Dict[str, Any],
               traceparent: Optional[str] = None) -> Tuple[int, Any]:
        """POST a job spec; returns (status, outcome-or-error body).

        *traceparent* (see :func:`mint_traceparent`) propagates a trace
        context with the submission.
        """
        return self.json("POST", "/v1/jobs", spec, traceparent=traceparent)

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        return self.json("GET", "/healthz")

    def run_manifest(self, run_id: str) -> Tuple[int, Dict[str, Any]]:
        return self.json("GET", f"/runs/{run_id}")

    def metrics_text(self) -> Tuple[int, str]:
        status, payload, _ = self.request("GET", "/metrics")
        return status, payload.decode("utf-8")
