"""Minimal asyncio HTTP/1.1 layer for the gateway — no framework.

Just enough protocol for a JSON service: request parsing off an
``asyncio.StreamReader`` (request line, headers, ``Content-Length``
bodies), keep-alive, JSON and plain-text responses, and chunked
transfer encoding for Server-Sent Events streams.  Limits are enforced
while *reading* (oversized headers or bodies are rejected with 431/413
before being buffered), so a misbehaving client cannot balloon the
process.

This is intentionally not a general web server: no TLS, no pipelining
beyond sequential keep-alive, no multipart.  The gateway fronts trusted
lab/LAN traffic; anything bigger belongs behind a real reverse proxy.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Protocol limits.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 2 * 1024 * 1024

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(Exception):
    """An error with a definite HTTP status and structured JSON body."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"{status}: {payload}")
        self.status = status
        self.payload = payload


class BadRequest(HttpError):
    def __init__(self, message: str, **extra: Any) -> None:
        super().__init__(400, dict({"error": "bad_request",
                                    "message": message}, **extra))


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "target", "path", "query", "headers", "body",
                 "keep_alive")

    def __init__(self, method: str, target: str,
                 headers: Dict[str, str], body: bytes,
                 keep_alive: bool) -> None:
        self.method = method
        self.target = target
        split = urlsplit(target)
        self.path = unquote(split.path)
        self.query = dict(parse_qsl(split.query))
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> Any:
        """The request body as JSON; raises BadRequest on garbage."""
        if not self.body:
            raise BadRequest("expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack.
            raise BadRequest(f"body is not valid JSON: {exc}")

    @property
    def tenant(self) -> str:
        """Rate-limit identity: the X-Tenant header, else ``"anonymous"``."""
        return self.headers.get("x-tenant", "anonymous").strip() or "anonymous"

    def wants_stream(self) -> bool:
        """SSE requested? ``?stream=1`` or ``Accept: text/event-stream``."""
        if self.query.get("stream", "") in ("1", "true", "yes"):
            return True
        return "text/event-stream" in self.headers.get("accept", "")


async def read_request(reader) -> Optional[Request]:
    """Parse one request off *reader*; None on a clean EOF between requests.

    Raises:
        HttpError: 400/413/431 on malformed or oversized input.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between keep-alive requests
        raise BadRequest("connection closed inside request line")
    except asyncio.LimitOverrunError:
        raise HttpError(431, {"error": "request_line_too_long"})
    except ConnectionError:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(431, {"error": "request_line_too_long"})
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version}")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            raise HttpError(431, {"error": "headers_too_large"})
        except (asyncio.IncompleteReadError, ConnectionError):
            raise BadRequest("connection closed inside headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(431, {"error": "headers_too_large"})
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_str = headers.get("content-length")
    if length_str is not None:
        try:
            length = int(length_str)
        except ValueError:
            raise BadRequest(f"bad Content-Length {length_str!r}")
        if length < 0:
            raise BadRequest(f"bad Content-Length {length_str!r}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, {"error": "body_too_large",
                                  "limit": MAX_BODY_BYTES})
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                raise BadRequest("connection closed inside body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, {"error": "bad_request",
                              "message": "chunked request bodies are not "
                                         "supported; send Content-Length"})

    keep_alive = (version != "HTTP/1.0"
                  and headers.get("connection", "").lower() != "close")
    try:
        return Request(method.upper(), target, headers, body, keep_alive)
    except ValueError as exc:  # urlsplit: e.g. an unclosed "//[" host
        raise BadRequest(f"malformed request target: {exc}")


def _head(status: int, content_type: str, extra: Tuple[Tuple[str, str], ...],
          length: Optional[int], keep_alive: bool) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name, value in extra:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(writer, status: int, payload: Any, *,
                  keep_alive: bool = True) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    writer.write(_head(status, "application/json", (), len(body),
                       keep_alive))
    writer.write(body)


def text_response(writer, status: int, body: str,
                  content_type: str = "text/plain; charset=utf-8", *,
                  keep_alive: bool = True) -> None:
    data = body.encode("utf-8")
    writer.write(_head(status, content_type, (), len(data), keep_alive))
    writer.write(data)


class SseStream:
    """A Server-Sent Events response over chunked transfer encoding.

    Usage: ``await stream.start()``, then any number of
    ``await stream.send(record, event=...)``, then ``await stream.close()``.
    Each record is one ``data:`` line of JSON — exactly the objects a
    telemetry JSONL stream holds, so SSE consumers and trace readers
    share a schema.
    """

    def __init__(self, writer) -> None:
        self.writer = writer
        self._open = False

    async def start(self) -> None:
        self.writer.write(_head(
            200, "text/event-stream",
            (("Cache-Control", "no-store"),
             ("Transfer-Encoding", "chunked")), None, False))
        self._open = True
        await self.writer.drain()

    def _chunk(self, data: bytes) -> None:
        self.writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        self.writer.write(data)
        self.writer.write(b"\r\n")

    async def send(self, record: Any, event: Optional[str] = None) -> None:
        lines = []
        if event:
            lines.append(f"event: {event}")
        lines.append("data: " + json.dumps(record, sort_keys=True))
        self._chunk(("\n".join(lines) + "\n\n").encode("utf-8"))
        await self.writer.drain()

    async def close(self) -> None:
        if self._open:
            self.writer.write(b"0\r\n\r\n")
            self._open = False
            await self.writer.drain()
