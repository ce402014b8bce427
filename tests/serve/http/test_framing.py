"""What the front door puts on the wire, read back off a raw socket.

The handler writes each response itself (status line, headers and body in
one buffer), so these tests pin the framing no client library would
forgive getting wrong: exactly one ``sendall`` per response, a
``Content-Length`` that matches the body, a parseable ``Date``, and
connection reuse / close as HTTP/1.1 and 1.0 define them.
"""

from __future__ import annotations

import json
import socket
from email.utils import parsedate_to_datetime

import pytest

from repro.obs.trace import REQUEST_ID_RE
from http_harness import start_server

ASK = json.dumps({"tenant": "acme", "sql": "SELECT COUNT(*) FROM sales"}).encode()


def post(path: str, body: bytes, version: str = "HTTP/1.1", extra: str = "") -> bytes:
    head = f"POST {path} {version}\r\nHost: t\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    return head.encode() + body


class _CountingSocket:
    """The accepted socket, with every ``sendall`` written down."""

    def __init__(self, sock, sends: list[bytes]):
        self._sock, self._sends = sock, sends

    def sendall(self, data) -> None:
        self._sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    # One slot and no queue: holding the slot makes the next ask a 429.
    server = start_server(
        tmp_path_factory.mktemp("framing"), {"acme": 1_000}, max_active=1, max_queued=0
    )
    yield server
    server.close()


@pytest.fixture()
def sends(server, monkeypatch):
    """Every buffer the server hands to ``sendall`` during the test.

    ``sends.accepted`` counts the connections they went out on.
    """

    class Sends(list):
        accepted = 0

    sends = Sends()
    accept = server.get_request

    def counting_accept():
        sock, address = accept()
        sends.accepted += 1
        return _CountingSocket(sock, sends), address

    monkeypatch.setattr(server, "get_request", counting_accept)
    return sends


@pytest.fixture()
def wire(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        yield sock.makefile("rwb", buffering=0)


def read_response(wire) -> tuple[int, dict[str, str], bytes]:
    status = int(wire.readline().split(b" ", 2)[1])
    fields: dict[str, str] = {}
    while (line := wire.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    body = b""
    while len(body) < int(fields["content-length"]):
        body += wire.read(int(fields["content-length"]) - len(body))
    return status, fields, body


def at_eof(wire) -> bool:
    return wire.read(1) == b""


def audit_records(server, request_id: str) -> list[dict]:
    entries = map(json.loads, server.audit.path.read_text().splitlines())
    return [entry for entry in entries if entry["request_id"] == request_id]


class TestOneWrite:
    def exchange(self, wire, request: bytes):
        wire.write(request)
        return read_response(wire)

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (post("/v1/ask", ASK), 200),
            (post("/v1/ask", b"{not json"), 400),
            (post("/v1/nope", b"{}"), 404),
            (b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200),
            (b"GET /v1/metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n", 200),
            (b"PUT /v1/ask HTTP/1.1\r\nHost: t\r\n\r\n", 501),
            (b"GET / HTTP/7.0\r\n\r\n", 505),
        ],
    )
    def test_each_response_is_exactly_one_sendall(self, sends, wire, request_bytes, status):
        got, fields, body = self.exchange(wire, request_bytes)
        assert got == status
        (sent,) = sends
        head, _, sent_body = sent.partition(b"\r\n\r\n")
        assert sent_body == body
        assert int(fields["content-length"]) == len(body)
        assert head.startswith(b"HTTP/1.1 %d" % status)
        assert REQUEST_ID_RE.match(fields["x-request-id"])
        assert fields["server"]
        # RFC 7231 IMF-fixdate, in GMT.
        assert parsedate_to_datetime(fields["date"]).utcoffset().total_seconds() == 0
        if fields["content-type"] == "application/json":
            assert json.loads(body)["request_id"] == fields["x-request-id"]
        else:
            assert fields["content-type"].startswith("text/plain; version=0.0.4")

    def test_shed_carries_retry_after_in_the_same_write(self, server, sends, wire):
        with server.admission.admit():
            status, fields, body = self.exchange(wire, post("/v1/ask", ASK))
        assert status == 429
        assert json.loads(body)["error"]["code"] == "shed_load"
        assert 1.0 <= float(fields["retry-after"]) <= 30.0
        assert len(sends) == 1 and b"Retry-After: " in sends[0]

    def test_expect_100_continue_is_answered_before_the_body_is_read(self, sends, wire):
        head = post("/v1/ask", ASK, extra="Expect: 100-continue\r\n")[: -len(ASK)]
        wire.write(head)
        assert wire.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert wire.readline() == b"\r\n"
        wire.write(ASK)
        status, _, body = read_response(wire)
        assert status == 200 and json.loads(body)["answer"]["route"]
        assert len(sends) == 2  # the interim line, then the response


class TestConnectionLifetime:
    def test_fifty_requests_reuse_one_keep_alive_connection(self, sends, wire):
        for _ in range(50):
            wire.write(post("/v1/ask", ASK))
            status, fields, _ = read_response(wire)
            assert status == 200 and "connection" not in fields
        assert len(sends) == 50 and sends.accepted == 1

    def test_connection_close_is_echoed_and_honoured(self, wire):
        wire.write(post("/v1/ask", ASK, extra="Connection: close\r\n"))
        status, fields, _ = read_response(wire)
        assert status == 200 and fields["connection"] == "close"
        assert at_eof(wire)

    def test_http_1_0_closes_after_one_response(self, wire):
        wire.write(post("/v1/ask", ASK, version="HTTP/1.0"))
        status, fields, _ = read_response(wire)
        assert status == 200 and fields["connection"] == "close"
        assert at_eof(wire)

    def test_http_1_0_keep_alive_is_honoured(self, wire):
        for _ in range(2):
            wire.write(post("/v1/ask", ASK, "HTTP/1.0", "Connection: keep-alive\r\n"))
            status, fields, _ = read_response(wire)
            assert status == 200 and "connection" not in fields

    def test_a_pipelined_second_request_is_answered(self, wire):
        wire.write(post("/v1/ask", ASK) + b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        first = read_response(wire)
        second = read_response(wire)
        assert first[0] == 200 and "answer" in json.loads(first[2])
        assert second[0] == 200 and json.loads(second[2])["status"] == "ok"

    def test_a_failed_head_closes_and_is_audited(self, server, wire):
        wire.write(b"GET /v1/healthz HTTP/1.1 trailing\r\nX-Request-Id: bad-head-1\r\n\r\n")
        status, fields, body = read_response(wire)
        assert status == 400 and json.loads(body)["error"]["code"] == "bad_request"
        assert fields["connection"] == "close" and at_eof(wire)
        # The headers were never read, so the offered id was not adopted.
        request_id = fields["x-request-id"]
        assert request_id != "bad-head-1"
        (record,) = audit_records(server, request_id)
        assert record["status"] == 400 and record["error"] == "bad_request"
        assert record["endpoint"] == "- "

    def test_unsupported_verb_is_audited_under_its_own_name(self, server, wire):
        wire.write(b"DELETE /v1/admin/tenants HTTP/1.1\r\nX-Request-Id: del-1\r\n\r\n")
        status, fields, body = read_response(wire)
        assert status == 501 and json.loads(body)["error"]["code"] == "not_implemented"
        assert fields["x-request-id"] == "del-1" and at_eof(wire)
        (record,) = audit_records(server, "del-1")
        assert record["endpoint"] == "DELETE /v1/admin/tenants"
        assert record["status"] == 501 and record["error"] == "not_implemented"

    def test_head_gets_the_headers_without_the_body(self, wire):
        wire.write(b"HEAD /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        status = int(wire.readline().split(b" ", 2)[1])
        head = b""
        while (line := wire.readline()) not in (b"\r\n", b""):
            head += line
        assert status == 501 and b"Content-Length: " in head
        assert at_eof(wire)
