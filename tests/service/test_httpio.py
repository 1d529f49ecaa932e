"""Unit tests for the minimal HTTP layer (parse + render)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.httpio import (
    HttpError,
    read_request,
    read_response,
    render_response,
)


def parse(raw: bytes, *, max_body: int = 1 << 20):
    """Feed raw bytes through read_request on a private loop."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)
    return asyncio.run(run())


class TestParse:
    def test_get_with_query(self):
        request = parse(b"GET /metrics?verbose=1 HTTP/1.1\r\n"
                        b"Host: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/metrics"
        assert request.query == {"verbose": "1"}
        assert request.body == b""
        assert request.keep_alive

    def test_post_json_body(self):
        body = json.dumps({"workload": "NN"}).encode()
        request = parse(b"POST /v1/simulate HTTP/1.1\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body)
        assert request.json() == {"workload": "NN"}

    def test_connection_close_honoured(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_bad_json_is_http_error(self):
        request = parse(b"POST /v1/simulate HTTP/1.1\r\n"
                        b"Content-Length: 3\r\n\r\n{{{")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_json"

    @pytest.mark.parametrize("body", [b"[1, 2]", b"7", b'"NN"', b"null"])
    def test_non_object_body_is_bad_json(self, body):
        # Every endpoint reads fields off an object; any other JSON
        # document is a 400, not an AttributeError 500.
        request = parse(b"POST /v1/simulate HTTP/1.1\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body)
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_json"

    def test_empty_body_parses_as_empty_object(self):
        request = parse(b"POST /v1/simulate HTTP/1.1\r\n\r\n")
        assert request.json() == {}

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                  + b"x" * 100, max_body=10)
        assert excinfo.value.status == 413

    def test_bad_request_line_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_chunked_bodies_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.code == "unsupported_transfer_encoding"

    def test_bad_content_length_rejected(self):
        with pytest.raises(HttpError):
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")


def parse_response(raw: bytes):
    """Feed raw bytes through read_response on a private loop."""
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_response(reader)
    return asyncio.run(run())


class TestReadResponse:
    def test_roundtrip_of_rendered_response(self):
        status, headers, body = parse_response(
            render_response(200, {"ok": True}))
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_header_overrun_is_502_not_limit_overrun_error(self):
        """Headers past the StreamReader's 64 KiB scan limit raise
        ``LimitOverrunError`` inside ``readuntil``; that must surface
        as a transport-class ``HttpError`` the failover handlers catch,
        never as a bare asyncio exception turning into a client 500."""
        raw = (b"HTTP/1.1 200 OK\r\n"
               + b"X-Junk: " + b"a" * (80 * 1024) + b"\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parse_response(raw)
        assert excinfo.value.status == 502
        assert excinfo.value.code == "upstream_headers_too_large"

    def test_oversized_but_terminated_headers_rejected(self):
        # Below the stream limit, above MAX_HEADER_BYTES: the explicit
        # size check catches what readuntil lets through.
        raw = (b"HTTP/1.1 200 OK\r\n"
               + b"X-Junk: " + b"a" * (40 * 1024) + b"\r\n"
               + b"Content-Length: 0\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parse_response(raw)
        assert excinfo.value.status == 502
        assert excinfo.value.code == "upstream_headers_too_large"

    def test_missing_content_length_is_502(self):
        with pytest.raises(HttpError) as excinfo:
            parse_response(b"HTTP/1.1 200 OK\r\n\r\n")
        assert excinfo.value.code == "bad_upstream_response"


class TestRender:
    def test_response_roundtrip(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_retry_after_header(self):
        raw = render_response(429, {"error": {}}, retry_after_s=1.0)
        assert b"Retry-After: 1" in raw

    def test_connection_close(self):
        raw = render_response(200, {}, keep_alive=False)
        assert b"Connection: close" in raw

    def test_error_payload_shape(self):
        error = HttpError(429, "queue_full", "full", retry_after_s=2.0,
                          detail={"depth": 9})
        payload = error.payload()
        assert payload["error"]["code"] == "queue_full"
        assert payload["error"]["retry_after_s"] == 2.0
        assert payload["error"]["depth"] == 9
