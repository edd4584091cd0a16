"""Minimal HTTP/1.1 layer for the gateway — no framework.

Just enough protocol for a JSON service: :func:`parse_request` takes the
first request out of a connection's buffer (request line, headers,
``Content-Length`` bodies), and the response helpers write JSON and
plain-text responses, each in one write.  Limits are enforced while *reading*
(oversized request lines, headers or bodies are rejected with 431/413
before being buffered), so a misbehaving client cannot balloon the
process.  The parser is one pure function of the buffered bytes, so a
request gets the same outcome however its bytes were split into reads.

This is intentionally not a general web server: no TLS, no multipart,
and pipelined requests are answered one after another.  The gateway
fronts trusted lab/LAN traffic; anything bigger belongs behind a real
reverse proxy.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional, Tuple
from urllib.parse import unquote, urlsplit

#: Protocol limits.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 2 * 1024 * 1024
#: Request-line versions served: HTTP/1.0, HTTP/1.1 and later 1.x minors.
_VERSION = re.compile(r"HTTP/1\.[0-9]")

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
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


def decode_json(body: bytes) -> Any:
    """A request body as JSON; raises BadRequest on garbage."""
    if not body:
        raise BadRequest("expected a JSON body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack.
        raise BadRequest(f"body is not valid JSON: {exc}")


def json_body(payload: Any) -> bytes:
    """The encoding of every JSON response body: sorted keys, one line."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "target", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, target: str,
                 headers: Dict[str, str], body: bytes,
                 keep_alive: bool) -> None:
        self.method = method
        self.target = target
        self.path = unquote(urlsplit(target).path)
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


def _headers(lines) -> Dict[str, str]:
    """The header fields of *lines* (each without its CRLF), in order;
    BadRequest at the first malformed or conflicting one."""
    headers: Dict[str, str] = {}
    for line in lines:
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            line = bytes(line) + b"\r\n"  # quoted as it arrived
            raise BadRequest(f"malformed header line {line[:32]!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise BadRequest("conflicting Content-Length headers")
        headers[name] = value
    return headers


def parse_request(buffer, eof: bool = False
                  ) -> Optional[Tuple[Request, int]]:
    """The first request in *buffer* (bytes or bytearray) and the number
    of bytes it takes, or None while it is incomplete.

    *eof* says the client will send nothing more: an empty buffer is
    then a clean end (None), and an incomplete request a 400.  Each
    limit is checked as soon as the bytes that break it are present,
    before the rest is buffered, so the outcome of a byte string does
    not depend on how it was split into reads.

    Raises:
        HttpError: 400/413/431 on malformed or oversized input.
    """
    end = buffer.find(b"\r\n", 0, MAX_REQUEST_LINE)
    if end < 0:
        if len(buffer) >= MAX_REQUEST_LINE:
            raise HttpError(431, {"error": "request_line_too_long"})
        if eof and buffer:
            raise BadRequest("connection closed inside request line")
        return None
    line = bytes(buffer[:end + 2])
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line {line[:32]!r}")
    method, target, version = parts
    # RFC 9112 §2.3: HTTP-version = "HTTP/" DIGIT "." DIGIT, case
    # sensitive; a later 1.x minor is served as 1.1 (RFC 9110 §2.5).
    if not _VERSION.fullmatch(version):
        raise BadRequest(f"unsupported protocol {version[:32]}")

    # The header lines run from *start* to the blank line; all of them,
    # blank line included, fit in MAX_HEADER_BYTES.
    start = end + 2
    limit = start + MAX_HEADER_BYTES
    blank = buffer.find(b"\r\n\r\n", end, limit)
    if blank < 0:
        if len(buffer) < limit and not eof:
            return None
        # The lines that did arrive are read first, so a malformed one
        # is reported as a line-by-line reader would report it.
        last = buffer.rfind(b"\r\n", start, limit)
        _headers(buffer[start:last].split(b"\r\n") if last >= 0 else ())
        if len(buffer) >= limit:
            raise HttpError(431, {"error": "headers_too_large"})
        raise BadRequest("connection closed inside headers")
    headers = _headers(buffer[start:blank].split(b"\r\n")
                       if blank > end else ())

    # Framing a proxy could read differently is refused (RFC 9112 §6.1,
    # §6.3): any Transfer-Encoding, and a length other than 1*DIGIT,
    # which int() would also take as "+10", "-0" or "1_0".
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding request bodies are not "
                         "supported; send Content-Length")
    length = 0
    length_str = headers.get("content-length")
    if length_str is not None:
        if not (length_str.isascii() and length_str.isdigit()):
            raise BadRequest(f"bad Content-Length {length_str[:32]!r}")
        try:
            length = int(length_str)
        except ValueError:  # past int()'s digit limit: too large anyway
            length = MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise HttpError(413, {"error": "body_too_large",
                                  "limit": MAX_BODY_BYTES})
    body_start = blank + 4
    stop = body_start + length
    if len(buffer) < stop:
        if eof:
            raise BadRequest("connection closed inside body")
        return None

    keep_alive = (version != "HTTP/1.0"
                  and headers.get("connection", "").lower() != "close")
    try:
        request = Request(method.upper(), target, headers,
                          bytes(buffer[body_start:stop]), keep_alive)
    except ValueError as exc:  # urlsplit: e.g. an unclosed "//[" host
        raise BadRequest(f"malformed request target: {exc}")
    return request, stop


def _head(status: int, content_type: str, length: int,
          keep_alive: bool) -> bytes:
    return (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n").encode("latin-1")


def json_response(writer, status: int, payload: Any, *,
                  keep_alive: bool = True) -> None:
    """Send *payload* as JSON, or *payload* itself when it is bytes
    :func:`json_body` already encoded, in one write."""
    body = payload if isinstance(payload, bytes) else json_body(payload)
    writer.write(_head(status, "application/json", len(body), keep_alive)
                 + body)


def text_response(writer, status: int, body: str,
                  content_type: str = "text/plain; charset=utf-8", *,
                  keep_alive: bool = True) -> None:
    """Send *body* as text, head and body in one write."""
    data = body.encode("utf-8")
    writer.write(_head(status, content_type, len(data), keep_alive) + data)

