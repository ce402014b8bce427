"""The front door's own head splitter, held equal to ``http.server``.

Stdlib is the oracle, not a retained twin: every generated request head is
fed to ``_Handler`` and to an unmodified ``BaseHTTPRequestHandler`` (both
through ``handle_one_request`` over in-memory files), and the two must
agree on the error status, or on ``(command, path, request_version,
close_connection)``, on ``headers.get`` for every name the handler reads,
and on whether a ``100 Continue`` went out.

One divergence is deliberate and excluded from the generators: the
``email`` parser re-splits the decoded head on bare ``\\r`` too, so a
carriage return *inside* a line starts a new header for stdlib (a smuggling
vector); the handler splits on ``\\n`` only, as the socket's ``readline``
does.
"""

from __future__ import annotations

import io
import json
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import REQUEST_ID_RE
from repro.serve.http.server import MAX_HEAD_LINES, MAX_LINE_BYTES, _Handler

#: Every header name ``_Handler`` reads.
HANDLER_READS = ("Content-Length", "X-Request-Id", "Connection", "Expect")


class _Oracle(BaseHTTPRequestHandler):
    """Stdlib's parse, untouched; only the verdict is written down."""

    protocol_version = "HTTP/1.1"
    status = None

    def do_GET(self):
        pass

    def do_POST(self):
        pass

    def send_error(self, code, message=None, explain=None):
        self.status = int(code)
        super().send_error(code, message, explain)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


class _Subject(_Handler):
    """Routing is not under test: a head that parses is simply accepted."""

    status = None

    def do_GET(self):
        pass

    def do_POST(self):
        pass

    def _respond(self, status, payload, **kwargs):
        self.status = status
        super()._respond(status, payload, **kwargs)


_SERVER = SimpleNamespace(
    tracer=None, audit=None, _kill_after_response=False, date_cache=(0, "")
)


def drive(handler_class, data: bytes):
    handler = handler_class.__new__(handler_class)
    handler.rfile, handler.wfile = io.BytesIO(data), io.BytesIO()
    handler.server, handler.client_address = _SERVER, ("127.0.0.1", 0)
    handler.handle_one_request()
    handler.continued = handler.wfile.getvalue().startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
    return handler


def assert_same_verdict(data: bytes) -> None:
    oracle, subject = drive(_Oracle, data), drive(_Subject, data)
    assert subject.status == oracle.status
    if oracle.status is not None:
        return
    if oracle.command is None:
        # A blank request line: both close without a word.
        assert subject.command is None and subject.close_connection is True
        return
    for field in ("command", "path", "request_version", "close_connection"):
        assert getattr(subject, field) == getattr(oracle, field), field
    for name in HANDLER_READS:
        for spelling in (name, name.lower(), name.upper()):
            assert subject.headers.get(spelling) == oracle.headers.get(spelling), name
    assert subject.headers.get("X-Absent", "fallback") == "fallback"
    assert subject.continued == oracle.continued


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #

METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "get", "BREW", "G\xe9T"])
TARGETS = st.sampled_from(
    ["/v1/ask", "/", "*", "//v1//ask", "///", "/v1/metrics?tenant=a&format=prometheus#f"]
)
VERSIONS = st.sampled_from(
    [
        "HTTP/0.9", "HTTP/1.0", "HTTP/1.1", "HTTP/1.2", "HTTP/1.10", "HTTP/01.01",
        "HTTP/2.0", "HTTP/3.7", "HTTP/10.0", "HTTP/1", "HTTP/1.1.1", "HTTP/x.y",
        "HTTP/1.a", "HTTP/.1", "HTTP/1.", "HTTP/-1.1", "HTTP/1.12345678901",
        "HTTP/\xb2.0", "http/1.1", "FTP/1.1", "HTTP/", "garbage",
    ]
)  # fmt: skip
GAPS = st.sampled_from([" ", "  ", "\t", " \t "])
EOLS = st.sampled_from(["\r\n", "\n"])


@st.composite
def request_lines(draw) -> str:
    if draw(st.integers(min_value=0, max_value=2)):
        # Two in three are well-formed, so the header rules get exercised.
        method = draw(st.sampled_from(["GET", "POST"]))
        version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/1.1"]))
        return f"{method} {draw(TARGETS)} {version}"
    words = draw(st.integers(min_value=0, max_value=4))
    parts = [draw(METHODS), draw(TARGETS), "extra", draw(VERSIONS)]
    if words == 3:
        parts = [parts[0], parts[1], parts[3]]
    else:
        parts = parts[:words]
    lead = draw(st.sampled_from(["", "", " "]))
    return lead + draw(GAPS).join(parts)


NAMES = st.sampled_from(
    [
        "Content-Length", "content-length", "CONTENT-LENGTH", "Connection",
        "connection", "Expect", "eXPECT", "X-Request-Id", "x-request-id", "Host",
        "X-Other", "Bad Name", "N\xe4me", "From", "",
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
            "100-continue", "100-Continue", "0", "17", "abc", "req-1", "bad id", "",
        ]
    ),
    FREE_TEXT,
)  # fmt: skip
PADS = st.sampled_from(["", " ", "\t", "  \t"])

FIELD_LINES = st.builds(lambda n, a, v, b: f"{n}:{a}{v}{b}", NAMES, PADS, VALUES, PADS)
HEADER_LINES = st.one_of(
    FIELD_LINES,
    FIELD_LINES,
    st.sampled_from(
        [
            "Expect: 100-continue", "expect:100-Continue", "Connection: close",
            "CONNECTION:\tKeep-Alive ", "Content-Length: 2", "X-Request-Id: req-7",
        ]
    ),  # fmt: skip
    st.builds(lambda pad, v: f"{pad}{v}", st.sampled_from([" ", "\t"]), FREE_TEXT),  # obs-fold
    st.builds(lambda v: f"no colon here {v}".replace(":", ""), FREE_TEXT),
    st.builds(lambda v: f"From {v}", FREE_TEXT),  # mbox envelope, colon or not
    st.just(":"),
)


@st.composite
def heads(draw) -> bytes:
    eol = draw(EOLS)
    lines = [draw(request_lines()), *draw(st.lists(HEADER_LINES, max_size=10))]
    # Mostly terminated by the blank line; sometimes the peer just stops.
    end = draw(st.sampled_from([eol, eol, eol, ""]))
    text = "".join(line + draw(EOLS) for line in lines) + end
    return text.encode("iso-8859-1")


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #


@settings(max_examples=1500, deadline=None)
@given(heads())
def test_generated_heads_get_stdlibs_verdict(data):
    assert_same_verdict(data)


@pytest.mark.parametrize(
    "data",
    [
        b"\r\n",
        b"   \r\n",
        b"GET /v1/healthz\r\n\r\n",  # HTTP/0.9: GET only
        b"POST /v1/ask\r\n\r\n",
        b"GET / HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET / HTTP/1.1\r\nconnection: CLOSE\r\nConnection: keep-alive\r\n\r\n",
        b"POST /v1/ask HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
        b"POST /v1/ask HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",
        b"GET / extra HTTP/1.1\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1\r\n folded first\r\nX-Request-Id: a\r\n\tb\r\n c\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Request-Id: one\r\nno colon\r\nContent-Length: 5\r\n\r\n",
        b"GET / HTTP/1.1\r\nFrom me\r\nContent-Length: 5\r\nFrom you: x\r\n\r\n",
        b"GET / HTTP/1.1\r\n: nameless\r\n continuation of nothing\r\nExpect: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: 7",  # EOF inside the head
        b"PUT /v1/ask HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"DELETE /v1/admin/tenants HTTP/1.1\r\n\r\n",
    ],
)
def test_pinned_heads_get_stdlibs_verdict(data):
    assert_same_verdict(data)


@pytest.mark.parametrize("length", [MAX_LINE_BYTES - 1, MAX_LINE_BYTES, MAX_LINE_BYTES + 1])
def test_line_length_limits_match(length):
    tail = b" HTTP/1.1\r\n"
    request_line = b"GET /" + b"a" * (length - len(b"GET /") - len(tail)) + tail
    assert len(request_line) == length
    assert_same_verdict(request_line + b"\r\n")
    header = b"X-Pad: " + b"b" * (length - len(b"X-Pad: \r\n")) + b"\r\n"
    assert len(header) == length
    assert_same_verdict(b"GET / HTTP/1.1\r\n" + header + b"\r\n")


@pytest.mark.parametrize("count", [MAX_HEAD_LINES - 2, MAX_HEAD_LINES - 1, MAX_HEAD_LINES, 101])
def test_header_count_limits_match(count):
    fields = b"".join(b"X-%d: v\r\n" % index for index in range(count))
    assert_same_verdict(b"GET / HTTP/1.1\r\n" + fields + b"\r\n")


def test_the_limits_are_where_the_issue_says():
    def status(data):
        return drive(_Subject, data).status

    assert status(b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n") == 414
    assert status(b"GET / HTTP/1.1\r\nX: " + b"b" * MAX_LINE_BYTES + b"\r\n\r\n") == 431
    assert status(b"GET / HTTP/1.1\r\n" + b"X: v\r\n" * 101 + b"\r\n") == 431
    assert status(b"GET / HTTP/2.0\r\n\r\n") == 505
    assert status(b"GET / HTTP/1.x\r\n\r\n") == 400
    assert status(b"GET\r\n\r\n") == 400
    assert status(b"PUT / HTTP/1.1\r\n\r\n") == 501


@pytest.mark.parametrize(
    "data, status, code",
    [
        (b"GET / extra HTTP/1.1\r\n\r\n", 400, "bad_request"),
        (b"GET / HTTP/9.9\r\nX-Request-Id: ignored\r\n\r\n", 505, "unsupported_version"),
        (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414, "uri_too_long"),
        (b"GET / HTTP/1.1\r\n" + b"X: v\r\n" * 101 + b"\r\n", 431, "headers_too_large"),
        (b"PUT /v1/ask HTTP/1.1\r\nX-Request-Id: put-1\r\n\r\n", 501, "not_implemented"),
    ],
)
def test_a_failed_head_is_a_typed_json_response_that_closes(data, status, code):
    handler = drive(_Subject, data)
    head, _, body = handler.wfile.getvalue().partition(b"\r\n\r\n")
    fields = dict(
        line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:]
    )
    payload = json.loads(body)
    assert handler.status == status
    assert payload["error"]["code"] == code
    assert fields["Content-Type"] == "application/json"
    assert int(fields["Content-Length"]) == len(body)
    assert fields["Connection"] == "close" and handler.close_connection is True
    assert REQUEST_ID_RE.match(fields["X-Request-Id"])
    assert payload["request_id"] == fields["X-Request-Id"]
    if code == "not_implemented":
        # The head parsed, so the offered id was adopted.
        assert fields["X-Request-Id"] == "put-1"
