"""The front door's HTTP/1.1 head codec, used at both ends of the socket.

One set of head limits, one set of header-field rules and one head-line
loop: the server reads every request head through :func:`read_head`
(:class:`repro.serve.http.server._Handler`), and :class:`VerdictClient`
reads every response head through it (:mod:`repro.serve.client`).  The
rules are the standard library's -- ``http.server`` for requests,
``http.client`` for responses, both over ``http.client.parse_headers`` --
and the tests hold each end equal to its stdlib counterpart
(``tests/serve/http/test_head_parse.py``, ``test_client_wire.py``).

Stdlib only, and deliberately small: no body framing beyond what each end
does with ``Content-Length`` itself, no chunked transfer coding.
"""

from __future__ import annotations

import re
from typing import Callable

#: Head limits, the values ``http.client`` enforces for stdlib servers and
#: clients: bytes per line, and lines per head *including* the blank one.
MAX_LINE_BYTES = 65536
MAX_HEAD_LINES = 100

#: A header field line: visible-ASCII name (possibly empty), then a colon.
_FIELD_RE = re.compile(r"[\x21-\x39\x3b-\x7e]*:")


class WireError(Exception):
    """The peer sent bytes this codec cannot frame."""


class HeadTooLarge(WireError):
    """A head line over :data:`MAX_LINE_BYTES`, or over :data:`MAX_HEAD_LINES` lines."""


class Headers:
    """A head's header fields: the first value per case-insensitive name.

    Built by the same rules as the ``email`` parser the stdlib HTTP modules
    use: the field block ends at the first line that is neither a field, a
    continuation, nor an mbox ``From `` envelope; obs-fold continuation
    lines stay in the value; a field with an empty name and a continuation
    with nothing to continue are dropped.
    """

    __slots__ = ("_fields",)

    def __init__(self, lines: list[str]):
        fields: dict[str, list[str]] = {}
        parts: list[str] | None = None
        for line in lines:
            if line[0] in " \t":
                if parts is not None:
                    parts.append(line)
                continue
            parts = None
            if line.startswith("From "):
                continue
            if _FIELD_RE.match(line) is None:
                break
            name, _, value = line.partition(":")
            if name:
                parts = [value.lstrip(" \t")]
                fields.setdefault(name.lower(), parts)
        self._fields = {
            name: "".join(parts).rstrip("\r\n") for name, parts in fields.items()
        }

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._fields.get(name.lower(), default)


def read_head(readline: Callable[[int], bytes]) -> Headers:
    """Read header lines up to the blank line (or EOF) and parse them.

    ``readline`` is a buffered reader's ``readline``; the start line was
    read already.  Raises :class:`HeadTooLarge` past either limit.
    """
    lines: list[str] = []
    while True:
        line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise HeadTooLarge("header line too long")
        if len(lines) >= MAX_HEAD_LINES:
            raise HeadTooLarge("too many header lines")
        if line in (b"\r\n", b"\n", b""):
            return Headers(lines)
        lines.append(line.decode("iso-8859-1"))
