"""A deliberately small HTTP/1.1 layer over asyncio streams.

The service speaks plain HTTP/1.1 with JSON bodies and keep-alive —
enough for ``curl``, ``http.client`` and any load balancer's health
checks — without pulling a web framework into a repository whose only
runtime dependency is numpy.  Limits are enforced while *reading*
(oversized headers or bodies are rejected before they are buffered),
and every error surfaces as an :class:`HttpError` carrying the status
code and a machine-readable error code, which the server renders into
the one structured error shape every endpoint shares::

    {"error": {"code": "queue_full", "message": "...", ...}}
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

#: Cap on the request line + headers block.
MAX_HEADER_BYTES = 32 * 1024

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request that ends with a structured non-200 response.

    ``code`` is the stable machine-readable identifier clients switch
    on (``bad_json``, ``queue_full``, ``deadline_exceeded``, ...);
    ``retry_after_s``, when set, is surfaced both in the JSON body and
    as a ``Retry-After`` header; ``detail`` merges extra fields into
    the error object.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after_s: float = None, detail: dict = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.detail = detail or {}

    def payload(self) -> dict:
        error = {"code": self.code, "message": self.message}
        if self.retry_after_s is not None:
            error["retry_after_s"] = self.retry_after_s
        error.update(self.detail)
        return {"error": error}


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: "dict[str, str]" = field(default_factory=dict)
    headers: "dict[str, str]" = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self):
        """Parse the body as a JSON object; empty bodies parse as ``{}``."""
        if not self.body:
            return {}
        try:
            document = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, "bad_json",
                            f"request body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise HttpError(400, "bad_json", "request body must be a JSON "
                            f"object, got {type(document).__name__}")
        return document


async def read_request(reader: asyncio.StreamReader, *,
                       max_body: int) -> "HttpRequest | None":
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed or oversized input and
    ``ConnectionError``/``asyncio.IncompleteReadError`` on a peer that
    vanishes mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(413, "headers_too_large",
                        "request headers exceed the per-request limit")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "headers_too_large",
                        "request headers exceed the per-request limit")

    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, "bad_request_line",
                        f"malformed request line: {lines[0]!r}") from None
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, "bad_content_length",
                            f"unparseable Content-Length {length!r}") from None
        if n < 0:
            raise HttpError(400, "bad_content_length",
                            "negative Content-Length")
        if n > max_body:
            raise HttpError(413, "body_too_large",
                            f"request body of {n} bytes exceeds the "
                            f"{max_body}-byte limit")
        body = await reader.readexactly(n)
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "unsupported_transfer_encoding",
                        "chunked request bodies are not supported; "
                        "send Content-Length")
    return HttpRequest(method=method.upper(), path=split.path, query=query,
                       headers=headers, body=body)


async def read_response(reader: asyncio.StreamReader
                        ) -> "tuple[int, dict[str, str], bytes]":
    """Read one HTTP response off a stream (the router's client side).

    Returns ``(status, headers, body)``.  Only the dialect the service
    itself speaks is supported — JSON bodies framed by
    ``Content-Length`` — which is all the router ever forwards to.
    An upstream emitting oversized or unterminated headers surfaces as
    a 502 :class:`HttpError` (never a bare ``LimitOverrunError``), so
    the router's failover handlers treat it like any other bad
    upstream and move to the next replica.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(502, "upstream_headers_too_large",
                        "upstream response headers exceed the limit") \
            from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(502, "upstream_headers_too_large",
                        "upstream response headers exceed the limit")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(502, "bad_upstream_response",
                        f"malformed upstream status line: {lines[0]!r}")
    status = int(parts[1])
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is None or not length.isdigit():
        raise HttpError(502, "bad_upstream_response",
                        "upstream response lacks a Content-Length")
    body = await reader.readexactly(int(length))
    return status, headers, body


def render_response(status: int, payload, *, keep_alive: bool = True,
                    retry_after_s: float = None) -> bytes:
    """Serialize one JSON response (status line + headers + body).

    ``payload`` is normally a JSON-able object; pre-encoded ``bytes``
    pass through untouched — that is how the shard router relays a
    backend's response without re-serializing it, keeping routed
    results byte-identical to direct serving.
    """
    if isinstance(payload, (bytes, bytearray)):
        body = bytes(payload)
    else:
        body = json.dumps(payload,
                          separators=(",", ":")).encode("utf-8") + b"\n"
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after_s is not None:
        lines.append(f"Retry-After: {max(1, round(retry_after_s))}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def route(routes: dict, request: HttpRequest):
    """The handler ``routes`` maps a request's method and path to;
    405 for a known path under another method, 404 otherwise."""
    handler = routes.get((request.method, request.path))
    if handler is None:
        if any(path == request.path for _, path in routes):
            raise HttpError(405, "method_not_allowed",
                            f"{request.method} is not supported "
                            f"on {request.path}")
        raise HttpError(404, "not_found",
                        f"no such endpoint {request.path!r}")
    return handler


class JsonServer:
    """The keep-alive connection loop the service and the router share.

    A subclass provides ``config.max_body_bytes``, the request counters
    on ``metrics``, the ``_draining`` flag, the ``_active_requests``
    count, the ``_connections``/``_conn_tasks`` sets, and
    ``_dispatch(request) -> (status, payload, retry_after_s)``.
    """

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes)
                except HttpError as exc:
                    writer.write(render_response(exc.status, exc.payload(),
                                                 keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._draining
                started = time.perf_counter()
                self._active_requests += 1
                try:
                    status, payload, retry_after = await self._dispatch(
                        request)
                finally:
                    self._active_requests -= 1
                self.metrics.requests_total += 1
                self.metrics.requests_by_endpoint[
                    f"{request.method} {request.path}"] += 1
                self.metrics.responses_by_status[status] += 1
                self.metrics.observe_latency(time.perf_counter() - started)
                writer.write(render_response(status, payload,
                                             keep_alive=keep_alive,
                                             retry_after_s=retry_after))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; nothing to answer
        finally:
            self._conn_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
