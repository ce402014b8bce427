"""The client end of the wire codec, held equal to ``http.client``.

Stdlib is the oracle, not a retained twin: every generated response is fed
to the client's parse (``_read_response``) and to an unmodified
``http.client.HTTPResponse`` over in-memory bytes, and the two must agree
on the status, the body ``Content-Length`` frames, ``X-Request-Id``,
``Retry-After`` and whether the connection closes afterwards -- or both
refuse the bytes.  A repeated name reads as its first value, the lookup
``http.client`` frames a response by (``getheader`` would join the
repeats with commas; the server sends each of these once).

Three refusals are deliberate and asserted as such: any
``Transfer-Encoding`` (the client decodes none; ``http.client`` would
de-chunk), a keep-alive response without ``Content-Length`` (``http.client``
would read to EOF, which on a keep-alive connection never comes), and an
interim 1xx status (it answers an ``Expect`` or ``Upgrade`` the client
never sends).  ``100`` itself is left out of the generators: ``http.client``
skips it and reads the next response.  As in ``test_head_parse.py``, a bare
``\\r`` inside a line is excluded too.

The pinned cases run the real client against a raw-socket stub that replays
canned bytes, so framing the server never produces (HTTP/1.0, trickled
segments, short bodies, oversized heads, chunked) is exercised end to end.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.client import ClientError, TransportError, VerdictClient, _read_response
from repro.serve.http.wire import MAX_HEAD_LINES, MAX_LINE_BYTES, WireError

#: Header names whose values the client reads or the oracle frames by.
READ_NAMES = ("X-Request-Id", "Retry-After", "Connection", "Content-Length")


class _BytesSocket:
    """Just enough socket for ``http.client.HTTPResponse``."""

    def __init__(self, data: bytes):
        self._data = data

    def makefile(self, mode: str):
        return io.BytesIO(self._data)


def oracle_parse(data: bytes):
    """``http.client``'s verdict: ``None`` if it refuses, else the response and body."""
    response = http.client.HTTPResponse(_BytesSocket(data), method="POST")
    try:
        response.begin()
        body = response.read()
    except http.client.HTTPException:
        return None
    return response, body


def subject_parse(data: bytes):
    try:
        return _read_response(io.BufferedReader(io.BytesIO(data)))
    except WireError:
        return None


def client_refuses(response) -> bool:
    """The responses the client refuses although ``http.client`` frames them."""
    return (
        response.headers.get("Transfer-Encoding") is not None
        or response.status < 200
        or (response.length is None and not response._check_close())
    )


def assert_same_verdict(data: bytes) -> None:
    oracle, subject = oracle_parse(data), subject_parse(data)
    if oracle is None:
        assert subject is None
        return
    response, body = oracle
    if client_refuses(response):
        assert subject is None
        return
    assert subject is not None
    assert subject.status == response.status
    assert subject.body == body
    assert subject.will_close == response.will_close
    for name in READ_NAMES:
        for spelling in (name, name.lower(), name.upper()):
            assert subject.headers.get(spelling) == response.headers.get(spelling), name


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #

VERSIONS = st.sampled_from(
    [
        "HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/1.0", "HTTP/0.9", "HTTP/1.2",
        "HTTP/2.0", "HTTP/1", "HTTPS/1.1", "http/1.1", "garbage",
    ]
)  # fmt: skip
STATUSES = st.sampled_from(
    [
        "200", "200", "201", "204", "304", "400", "404", "429", "499", "503",
        "101", "999", "1000", "99", "abc", "2_00", "+200", "",
    ]
)  # fmt: skip
REASONS = st.sampled_from(["", "OK", "Not Found", "Too Many Requests", "x  y"])
GAPS = st.sampled_from([" ", "  ", "\t"])
EOLS = st.sampled_from(["\r\n", "\n"])

NAMES = st.sampled_from(
    [
        "Content-Length", "content-length", "CONTENT-LENGTH", "Connection",
        "connection", "Keep-Alive", "Proxy-Connection", "Transfer-Encoding",
        "X-Request-Id", "x-request-id", "Retry-After", "retry-after", "Date",
        "Bad Name", "N\xe4me", "From", "",
    ]
)  # fmt: skip
# Any latin-1 byte but the two that end lines.
FREE_TEXT = st.text(
    alphabet=st.characters(max_codepoint=0xFF, exclude_characters="\r\n"), max_size=12
)
VALUES = st.one_of(
    st.sampled_from(
        [
            "close", "Close", "keep-alive", "Keep-Alive", "keep-alive, close",
            "chunked", "gzip", "0", "3", "5", "17", "-3", " 4 ", "1_0", "abc",
            "req-1", "0.25", "",
        ]
    ),
    FREE_TEXT,
)  # fmt: skip
PADS = st.sampled_from(["", " ", "\t"])

FIELD_LINES = st.builds(lambda n, a, v, b: f"{n}:{a}{v}{b}", NAMES, PADS, VALUES, PADS)
HEADER_LINES = st.one_of(
    FIELD_LINES,
    FIELD_LINES,
    st.sampled_from(
        [
            "Content-Length: 5", "Connection: close", "Connection: keep-alive",
            "X-Request-Id: req-7", "Retry-After: 0.5", "Keep-Alive: timeout=5",
        ]
    ),  # fmt: skip
    st.builds(lambda pad, v: f"{pad}{v}", st.sampled_from([" ", "\t"]), FREE_TEXT),  # obs-fold
    st.builds(lambda v: f"no colon here {v}".replace(":", ""), FREE_TEXT),
    st.builds(lambda v: f"From {v}", FREE_TEXT),  # mbox envelope, colon or not
    st.just(":"),
)


@st.composite
def status_lines(draw) -> str:
    if draw(st.integers(min_value=0, max_value=2)):
        # Two in three are well-formed, so the header rules get exercised.
        version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/1.1"]))
        status = draw(st.sampled_from(["200", "204", "404", "429", "503"]))
        return f"{version} {status} {draw(REASONS)}"
    words = [draw(VERSIONS), draw(STATUSES), draw(REASONS)]
    return draw(GAPS).join(words[: draw(st.integers(min_value=1, max_value=3))])


@st.composite
def responses(draw) -> bytes:
    eol = draw(EOLS)
    body = draw(st.binary(max_size=24))
    fields = draw(st.lists(HEADER_LINES, max_size=10))
    if draw(st.booleans()):
        # Half the heads frame their body exactly, wherever the field sits.
        at = draw(st.integers(min_value=0, max_value=len(fields)))
        fields.insert(at, f"Content-Length: {len(body)}")
    lines = [draw(status_lines()), *fields]
    # Mostly terminated by the blank line; sometimes the peer just stops.
    end = draw(st.sampled_from([eol, eol, eol, ""]))
    text = "".join(line + draw(EOLS) for line in lines) + end
    return text.encode("iso-8859-1") + body


# --------------------------------------------------------------------------- #
# The differential test
# --------------------------------------------------------------------------- #


@settings(max_examples=1500, deadline=None)
@given(responses())
def test_generated_responses_get_http_clients_verdict(data):
    assert_same_verdict(data)


@pytest.mark.parametrize(
    "data",
    [
        b"",  # EOF before the status line
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\n{}",  # no reason phrase
        b"HTTP/1.0 200 OK\r\n\r\n{}",  # read to EOF
        b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 429 Too Many\r\nretry-after: 0.5\r\nRetry-After: 9\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Request-Id: a\r\n\tb\r\nContent-Length: 1\r\n\r\nz",  # folded
        b"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",  # body cut short
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\nConnection: close\r\n\r\nto eof",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n\r\n{}",  # keep-alive without a length
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 101 Switching Protocols\r\n\r\n",
        b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 1000 Nope\r\n\r\n",
        b"ICY 200 OK\r\n\r\n",
    ],
)
def test_pinned_responses_get_http_clients_verdict(data):
    assert_same_verdict(data)


@pytest.mark.parametrize("count", [MAX_HEAD_LINES - 1, MAX_HEAD_LINES])
def test_head_line_limit_matches(count):
    fields = b"".join(b"X-%d: v\r\n" % index for index in range(count - 1))
    data = b"HTTP/1.1 200 OK\r\n" + fields + b"Content-Length: 0\r\n\r\n"
    assert_same_verdict(data)


@pytest.mark.parametrize("length", [MAX_LINE_BYTES, MAX_LINE_BYTES + 1])
def test_line_length_limit_matches(length):
    header = b"X-Pad: " + b"b" * (length - len(b"X-Pad: \r\n")) + b"\r\n"
    assert len(header) == length
    assert_same_verdict(b"HTTP/1.1 200 OK\r\n" + header + b"Content-Length: 0\r\n\r\n")


# --------------------------------------------------------------------------- #
# Pinned cases against a raw-socket stub
# --------------------------------------------------------------------------- #

OK_BODY = json.dumps({"status": "ok", "recorded": True, "answer": {}}).encode()


def reply(
    body: bytes = OK_BODY, version: str = "HTTP/1.1", status: str = "200 OK", extra: str = ""
) -> bytes:
    head = f"{version} {status}\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    return head.encode() + body


#: Script steps: ``(reply bytes, then)`` with ``then`` one of these; a
#: ``None`` reply closes the connection without answering.
KEEP, CLOSE, TRICKLE = "keep", "close", "trickle"


class RawStub:
    """Replays canned response bytes, one script step per request read.

    ``requests`` holds ``(connection number, request bytes)``; connections
    are numbered from 1 in accept order.
    """

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self.script: deque = deque()
        self.requests: list[tuple[int, bytes]] = []
        self.connections = 0
        self._threads: list[threading.Thread] = []
        self._accept = threading.Thread(target=self._serve, daemon=True)
        self._accept.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            self.connections += 1
            thread = threading.Thread(
                target=self._converse, args=(conn, self.connections), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _converse(self, conn: socket.socket, number: int) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, _, rest = buffer.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                while len(rest) < length:
                    rest += conn.recv(65536)
                self.requests.append((number, head + b"\r\n\r\n" + rest[:length]))
                buffer = rest[length:]
                data, then = self.script.popleft() if self.script else (reply(), KEEP)
                if data is None:
                    return
                if then == TRICKLE:
                    for index in range(len(data)):
                        conn.sendall(data[index : index + 1])
                        time.sleep(0.0005)
                else:
                    conn.sendall(data)
                if then == CLOSE:
                    return

    def close(self) -> None:
        self._stop.set()
        self._accept.join(timeout=10)
        self.listener.close()
        for thread in self._threads:
            thread.join(timeout=10)
        assert not self._accept.is_alive()
        assert not any(thread.is_alive() for thread in self._threads)


@pytest.fixture
def stub():
    server = RawStub()
    try:
        yield server
    finally:
        server.close()


def make_client(stub, **kwargs) -> VerdictClient:
    kwargs.setdefault("backoff_base_s", 0.001)
    kwargs.setdefault("backoff_cap_s", 0.002)
    kwargs.setdefault("timeout_s", 10.0)
    return VerdictClient(port=stub.port, tenant="acme", **kwargs)


def connection_numbers(stub) -> list[int]:
    return [number for number, _ in stub.requests]


class TestConnectionReuse:
    def test_keep_alive_responses_share_one_connection(self, stub):
        with make_client(stub) as client:
            client.health()
            client.health()
        assert connection_numbers(stub) == [1, 1]

    def test_an_http_1_0_answer_makes_the_next_request_reconnect(self, stub):
        # The stub keeps the socket open: only the client can end it.
        stub.script.extend([(reply(version="HTTP/1.0"), KEEP)] * 2)
        with make_client(stub) as client:
            client.health()
            client.health()
        assert connection_numbers(stub) == [1, 2]

    def test_connection_close_is_honoured(self, stub):
        stub.script.append((reply(extra="Connection: close\r\n"), KEEP))
        with make_client(stub) as client:
            client.health()
            client.health()
        assert connection_numbers(stub) == [1, 2]

    def test_a_closing_response_without_a_length_is_read_to_eof(self, stub):
        stub.script.append((b"HTTP/1.0 200 OK\r\n\r\n" + OK_BODY, CLOSE))
        with make_client(stub) as client:
            assert client.health()["status"] == "ok"


class TestFraming:
    def test_a_response_trickled_one_byte_per_segment_parses(self, stub):
        stub.script.append((reply(extra="X-Request-Id: trickled-1\r\n"), TRICKLE))
        with make_client(stub) as client:
            assert client.health()["status"] == "ok"
            assert client.last_request_id == "trickled-1"

    def test_an_oversized_head_is_typed(self, stub):
        fields = "".join(f"X-{index}: v\r\n" for index in range(MAX_HEAD_LINES))
        stub.script.append((reply(extra=fields), KEEP))
        with make_client(stub) as client:
            with pytest.raises(TransportError, match="too many header lines"):
                client.health()

    def test_chunked_is_refused(self, stub):
        chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
        stub.script.append((chunked, KEEP))
        with make_client(stub) as client:
            with pytest.raises(TransportError, match="Transfer-Encoding"):
                client.health()

    def test_a_keep_alive_response_without_a_length_is_refused(self, stub):
        stub.script.append((b"HTTP/1.1 200 OK\r\n\r\n" + OK_BODY, KEEP))
        with make_client(stub) as client:
            with pytest.raises(TransportError, match="without Content-Length"):
                client.health()

    def test_each_request_is_one_sendall_with_the_headers_it_needs(self, stub, monkeypatch):
        sends: list[bytes] = []
        connect = socket.create_connection

        class CountingSocket:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data) -> None:
                sends.append(bytes(data))
                self._sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        monkeypatch.setattr(
            socket, "create_connection", lambda *a, **k: CountingSocket(connect(*a, **k))
        )
        with make_client(stub) as client:
            client.health()
            client.ask("SELECT COUNT(*) FROM sales", request_id="req-9")
            client.record("SELECT COUNT(*) FROM sales")
        assert [send for _, send in stub.requests] == sends
        head, _, body = sends[1].partition(b"\r\n\r\n")
        request_line, *lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines)
        assert request_line == "POST /v1/ask HTTP/1.1"
        assert fields == {
            "Host": f"127.0.0.1:{stub.port}",
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "X-Request-Id": "req-9",
        }
        assert json.loads(body) == {"tenant": "acme", "sql": "SELECT COUNT(*) FROM sales"}
        assert sends[0].startswith(b"GET /v1/healthz HTTP/1.1\r\n")
        assert b"Content-Length" not in sends[0]

    @pytest.mark.parametrize(
        "call",
        [
            lambda client: client.trace("two words"),
            lambda client: client.trace("line\r\nX-Evil: 1"),
            lambda client: client.ask("SELECT 1", request_id="id\r\nX-Evil: 1"),
        ],
    )
    def test_a_target_or_id_that_would_corrupt_the_head_is_refused_unsent(self, stub, call):
        with make_client(stub) as client:
            with pytest.raises(ClientError):
                call(client)
        assert stub.requests == []


class TestInFlightDrops:
    CUT_SHORT = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"status\""

    def test_a_body_cut_short_is_replayed_for_an_idempotent_call(self, stub):
        stub.script.append((self.CUT_SHORT, CLOSE))
        with make_client(stub, retry_transport_errors=True) as client:
            assert client.health()["status"] == "ok"
        assert client.retries_performed == 1
        assert connection_numbers(stub) == [1, 2]

    def test_a_body_cut_short_is_never_replayed_for_a_mutation(self, stub):
        stub.script.append((self.CUT_SHORT, CLOSE))
        with make_client(stub, retry_transport_errors=True) as client:
            with pytest.raises(TransportError, match="cut short"):
                client.record("SELECT COUNT(*) FROM sales")
        assert len(stub.requests) == 1

    def test_a_body_cut_short_is_typed_without_transport_retries(self, stub):
        stub.script.append((self.CUT_SHORT, CLOSE))
        with make_client(stub) as client:
            with pytest.raises(TransportError):
                client.health()
        assert len(stub.requests) == 1

    def test_eof_before_the_status_line_on_a_reused_connection(self, stub):
        # The server closed an idle keep-alive socket: the second request
        # went out on it and met EOF -- an in-flight drop, not a refusal.
        stub.script.extend([(reply(), KEEP), (None, CLOSE), (reply(), KEEP), (None, CLOSE)])
        with make_client(stub, retry_transport_errors=True) as client:
            client.health()
            assert client.health()["status"] == "ok"
            assert client.retries_performed == 1
            with pytest.raises(TransportError, match="before the status line"):
                client.record("SELECT COUNT(*) FROM sales")
        assert connection_numbers(stub) == [1, 1, 2, 2]
