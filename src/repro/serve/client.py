"""Thin blocking HTTP client for the Verdict front door.

:class:`VerdictClient` wraps the ``/v1`` wire protocol of
:mod:`repro.serve.http` in plain method calls.  Stdlib only: one keep-alive
socket per client instance (**not** thread-safe -- give each thread its own
client, as the benchmarks do), framed by the head codec the server uses too
(:mod:`repro.serve.http.wire`).  A request is one ``sendall`` of head and
body; a response is a status line, a head read through the codec, and a
body of exactly ``Content-Length`` bytes (read to EOF only when the
response closes the connection).  A response with a ``Transfer-Encoding``
(chunked), or a keep-alive one without ``Content-Length``, is refused as
unframeable.

Backpressure handling: a 429 (shed load) is retried automatically with
capped exponential backoff plus deterministic jitter, up to
``max_retries`` attempts -- the client-side half of the admission
contract, and what the backpressure property test asserts "eventually
succeeds once load drops".  A ``Retry-After`` header, when the server
sends one, overrides the computed backoff (jittered *upward* only, so the
client never comes back earlier than asked).  A 503 (server draining) is
retried only when it carries ``Retry-After`` -- an explicit "come back
later"; a bare 503 means the server is going away and the caller should
fail over, not camp on the socket.

Transport-level drops are split by *when* the connection died.  A refused
or failed **connect** means the request was provably never sent, so it is
safe to retry -- against the next endpoint when several are configured --
for *any* request, mutating or not.  A connection that died **in flight**
(reset, timeout after the bytes left) leaves the request's fate unknown:
those reconnect and retry only when ``retry_transport_errors`` is set
**and the request is idempotent** (``ask`` with ``record=False`` and every
GET).  Anything that mutates learned state (``feedback/append``,
``feedback/record``, recording asks, admin calls) is never replayed
blindly -- a duplicate append would silently double rows.  Non-idempotent
in-flight drops raise :class:`TransportError` so callers see crashes
honestly and decide themselves.

Failover: pass ``endpoints=["host:a", "host:b"]`` to spread one logical
service over a replicated leader/follower pair.  A mutating request that
lands on a read-only follower comes back as a typed 503 whose body names
the leader; the client adopts that endpoint and retries -- safe for any
request, because the follower rejected it before doing anything.  A
``retry_budget_s`` wall-clock budget bounds the *total* time spent
retrying (backoff sleeps included) per call; exceeding it raises
:class:`RetriesExhausted` instead of sleeping into the caller's deadline.

Every HTTP error status maps to a typed exception carrying the server's
machine-readable error code (:class:`BadRequestError`,
:class:`NotFoundError`, :class:`ConflictError`, :class:`SaturatedError`,
:class:`ServerClosingError`, :class:`RemoteError`).
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
from typing import BinaryIO, Mapping, NamedTuple, Sequence

from repro.errors import ReproError
from repro.serve.http.wire import MAX_LINE_BYTES, Headers, HeadTooLarge, WireError, read_head


class ClientError(ReproError):
    """Base class for everything the client can raise."""

    def __init__(self, message: str, status: int | None = None, code: str | None = None):
        super().__init__(message)
        self.status = status
        self.code = code


class TransportError(ClientError):
    """The connection died (refused, reset, timed out) or its response was unframeable."""


class BadRequestError(ClientError):
    """400: malformed request (schema violation, invalid SQL, bad rows)."""


class NotFoundError(ClientError):
    """404: unknown tenant, table, or route."""


class ConflictError(ClientError):
    """409: tenant already exists."""


class SaturatedError(ClientError):
    """429: shed by admission control and retries exhausted.

    ``quota``, when the shed came from the per-tenant resource governor,
    is the tenant's quota state from the error body (remaining tokens,
    refill wait, concurrency) at the final attempt.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        code: str | None = None,
        quota: dict | None = None,
    ):
        super().__init__(message, status=status, code=code)
        self.quota = quota


class CancelledError(ClientError):
    """499: the request was cancelled mid-flight (cancel API / disconnect)."""


class ServerClosingError(ClientError):
    """503: the server is shutting down."""


class RemoteError(ClientError):
    """Any other non-2xx response (including 500 internal errors)."""


class RetriesExhausted(ClientError):
    """The per-call ``retry_budget_s`` wall clock ran out while retrying.

    Raised *instead of* sleeping past the budget, so a caller with a
    deadline gets the time back.  Carries the last status/code seen.
    """


def parse_endpoint(value: str, default_port: int = 8123) -> tuple[str, int]:
    """``host``, ``host:port``, or ``http://host:port[/...]`` -> (host, port)."""
    text = value.strip()
    if "//" in text:
        text = text.split("//", 1)[1]
    text = text.split("/", 1)[0]
    host, _, port = text.partition(":")
    if not host:
        raise ClientError(f"invalid endpoint {value!r}")
    if not port:
        return host, default_port
    try:
        return host, int(port)
    except ValueError:
        raise ClientError(f"invalid endpoint {value!r}") from None


class _Response(NamedTuple):
    status: int
    headers: Headers
    #: The server closes the connection after this response.
    will_close: bool
    body: bytes


def _read_response(rfile: BinaryIO) -> _Response:
    """Read one response off a buffered reader, by ``http.client``'s rules.

    Status line, then the shared head reader, then the body: exactly
    ``Content-Length`` bytes, or everything to EOF when the response closes
    the connection.  Anything unframeable raises :class:`WireError`.
    """
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise WireError("connection closed before the status line")
    if len(line) > MAX_LINE_BYTES:
        raise HeadTooLarge("status line too long")
    words = str(line, "iso-8859-1").split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise WireError(f"bad status line {line!r}")
    try:
        status = int(words[1])
    except ValueError:
        status = 0
    if not 100 <= status <= 999:
        raise WireError(f"bad status line {line!r}")
    version = words[0]
    http_1_0 = version in ("HTTP/1.0", "HTTP/0.9")
    if not http_1_0 and not version.startswith("HTTP/1."):
        raise WireError(f"unsupported protocol {version!r}")
    if status < 200:
        # Interim responses answer what this client never sends
        # (``Expect: 100-continue``, ``Upgrade``).
        raise WireError(f"unexpected interim response {status}")
    headers = read_head(rfile.readline)
    if headers.get("Transfer-Encoding") is not None:
        raise WireError("a response with a Transfer-Encoding is not supported")
    connection = headers.get("Connection", "").lower()
    if http_1_0:
        # HTTP/1.0 closes unless the server says it keeps the connection.
        will_close = not (
            headers.get("Keep-Alive")
            or "keep-alive" in connection
            or "keep-alive" in headers.get("Proxy-Connection", "").lower()
        )
    else:
        will_close = "close" in connection
    length: int | None = None
    try:
        length = int(headers.get("Content-Length", ""))
    except ValueError:
        pass
    if status in (204, 304):
        length = 0
    if length is None or length < 0:
        if not will_close:
            raise WireError("keep-alive response without Content-Length")
        return _Response(status, headers, will_close, rfile.read())
    body = rfile.read(length)
    if len(body) < length:
        raise WireError(f"response body cut short: {len(body)} of {length} bytes")
    return _Response(status, headers, will_close, body)


#: A request target is visible ASCII: a control, space or non-ASCII
#: character would corrupt (or smuggle into) the request line.
_BAD_TARGET_RE = re.compile(r"[^\x21-\x7e]")


class _Connection:
    """One keep-alive socket to one endpoint and its buffered reader."""

    __slots__ = ("_sock", "_rfile", "_host")

    def __init__(self, host: str, port: int, timeout_s: float):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self._sock.makefile("rb")
        except OSError:
            self._sock.close()
            raise
        self._host = f"{host}:{port}"

    def exchange(self, method: str, path: str, fields: str, body: bytes) -> _Response:
        """Send one request -- head and body in one ``sendall`` -- and read the response.

        ``fields`` is the rendered header lines after ``Host``, each ending
        in CRLF.
        """
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n{fields}\r\n"
        self._sock.sendall(head.encode("latin-1") + body)
        return _read_response(self._rfile)

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


_STATUS_EXCEPTIONS = {
    400: BadRequestError,
    404: NotFoundError,
    409: ConflictError,
    429: SaturatedError,
    499: CancelledError,
    503: ServerClosingError,
}


class VerdictClient:
    """Blocking JSON client for one front-door server (one tenant by default).

    Parameters
    ----------
    host, port:
        The server address.
    tenant:
        Default tenant for every call (overridable per call).
    timeout_s:
        Socket timeout for connect and each response read.
    max_retries:
        How many times a 429 is retried before :class:`SaturatedError`.
    backoff_base_s, backoff_cap_s:
        Exponential backoff schedule: attempt ``k`` sleeps
        ``min(cap, base * 2**k)`` scaled by jitter in ``[0.5, 1.0]``.
    retry_transport_errors:
        Also retry (with the same backoff) when an established connection
        drops mid-request, for *idempotent* requests only (GETs and
        non-recording asks) -- useful across a server restart; off by
        default.  A failed *connect* is always retryable regardless (the
        request was never sent).
    seed:
        Seed of the deterministic jitter stream.
    endpoints:
        Optional list of ``host:port`` endpoints forming one logical
        service (a replicated pair).  The first is tried first; a refused
        connect or a follower rejection rotates to the next.  Overrides
        ``host``/``port``.
    retry_budget_s:
        Wall-clock budget for retrying one call (sleeps included).  When a
        retry would sleep past it, :class:`RetriesExhausted` is raised
        instead.  ``None`` (default) keeps the attempt-count limit only.
    follow_leader_hints:
        Follow the ``leader`` endpoint named in a follower's typed 503
        rejection (on by default).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        tenant: str | None = None,
        timeout_s: float = 30.0,
        max_retries: int = 6,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        retry_transport_errors: bool = False,
        seed: int = 0,
        endpoints: Sequence[str] | None = None,
        retry_budget_s: float | None = None,
        follow_leader_hints: bool = True,
    ):
        if endpoints:
            self._endpoints = [parse_endpoint(entry) for entry in endpoints]
        else:
            self._endpoints = [(host, port)]
        self._endpoint_index = 0
        self.host, self.port = self._endpoints[0]
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_transport_errors = retry_transport_errors
        self.retry_budget_s = retry_budget_s
        self.follow_leader_hints = follow_leader_hints
        self.retries_performed = 0
        #: Endpoint switches performed (rotations + followed leader hints).
        self.failovers_performed = 0
        #: Request id of the most recent response (the server echoes the
        #: offered X-Request-Id or the id it minted).
        self.last_request_id: str | None = None
        #: Tenant quota state from the most recent governor 429 body, if
        #: any -- remaining tokens, refill wait, concurrency.
        self.last_quota: dict | None = None
        self._random = random.Random(seed)
        self._connection: _Connection | None = None

    # ----------------------------------------------------------------- public

    def ask(
        self,
        sql: str,
        tenant: str | None = None,
        max_relative_error: float | None = None,
        max_latency_s: float | None = None,
        deadline_s: float | None = None,
        record: bool | None = None,
        request_id: str | None = None,
    ) -> dict:
        """Answer one SQL request; returns the answer state dict.

        ``request_id``, when given, is sent as the ``X-Request-Id`` header
        so the server adopts it end to end (audit log, trace ring).  The id
        the server actually used -- minted when none was offered -- is
        available afterwards as :attr:`last_request_id`.
        """
        payload = {
            "tenant": self._tenant(tenant),
            "sql": sql,
            "max_relative_error": max_relative_error,
            "max_latency_s": max_latency_s,
            "deadline_s": deadline_s,
            "record": record,
        }
        # Only a non-recording ask is replayable after a dropped
        # connection: with record unset or True the server may already have
        # mutated the synopsis before the connection died.
        return self._request(
            "POST",
            "/v1/ask",
            payload,
            idempotent=record is False,
            request_id=request_id,
        )["answer"]

    def ask_traced(
        self,
        sql: str,
        tenant: str | None = None,
        max_relative_error: float | None = None,
        max_latency_s: float | None = None,
        deadline_s: float | None = None,
        record: bool | None = None,
        request_id: str | None = None,
    ) -> dict:
        """Like :meth:`ask`, with the request's span tree attached.

        Returns the full response payload: ``answer``, ``trace`` (the span
        tree, or ``None`` when the server runs untraced), ``request_id``.
        """
        payload = {
            "tenant": self._tenant(tenant),
            "sql": sql,
            "max_relative_error": max_relative_error,
            "max_latency_s": max_latency_s,
            "deadline_s": deadline_s,
            "record": record,
            "trace": True,
        }
        return self._request(
            "POST",
            "/v1/ask",
            payload,
            idempotent=record is False,
            request_id=request_id,
        )

    def explain(
        self,
        sql: str,
        tenant: str | None = None,
        max_relative_error: float | None = None,
        max_latency_s: float | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """The planner's full decision record for one request, not executed.

        Returns the candidate-route table (cost/error estimates, breaker
        states, skip reasons), the chosen route, cost-model inputs, and
        cache/version state -- see ``VerdictService.explain``.
        """
        payload = {
            "tenant": self._tenant(tenant),
            "sql": sql,
            "max_relative_error": max_relative_error,
            "max_latency_s": max_latency_s,
            "deadline_s": deadline_s,
            "explain": True,
        }
        # EXPLAIN executes nothing, so it is always replayable.
        return self._request("POST", "/v1/ask", payload, idempotent=True)["explain"]

    def trace(self, request_id: str) -> dict:
        """The finished span tree of one served request, from the ring."""
        return self._request(
            "GET", f"/v1/trace/{request_id}", idempotent=True
        )["trace"]

    def metrics_prometheus(self, tenant: str | None = None) -> str:
        """The Prometheus text exposition (server-wide or tenant-scoped)."""
        name = tenant if tenant is not None else self.tenant
        path = "/v1/metrics?format=prometheus" + (f"&tenant={name}" if name else "")
        return self._request("GET", path, idempotent=True, raw=True)

    def append(
        self,
        table: str,
        rows: Mapping[str, Sequence],
        tenant: str | None = None,
        adjust: bool = True,
    ) -> dict:
        """Append rows (column -> values mapping) to a tenant fact table."""
        payload = {
            "tenant": self._tenant(tenant),
            "table": table,
            "rows": {column: list(values) for column, values in rows.items()},
            "adjust": adjust,
        }
        return self._request("POST", "/v1/feedback/append", payload)

    def record(self, sql: str, tenant: str | None = None) -> bool:
        """Full-scan one query and record its snippets (training aid)."""
        payload = {"tenant": self._tenant(tenant), "sql": sql}
        return self._request("POST", "/v1/feedback/record", payload)["recorded"]

    def metrics(self, tenant: str | None = None) -> dict:
        """Tenant-scoped metrics, or server-wide when no tenant is set."""
        name = tenant if tenant is not None else self.tenant
        path = "/v1/metrics" + (f"?tenant={name}" if name else "")
        return self._request("GET", path, idempotent=True)

    def train(
        self, tenant: str | None = None, learn: bool | None = None, wait: bool = True
    ) -> dict:
        payload = {"tenant": self._tenant(tenant), "learn": learn, "wait": wait}
        return self._request("POST", "/v1/admin/train", payload)

    def snapshot(self, tenant: str | None = None) -> dict:
        payload = {"tenant": self._tenant(tenant)}
        return self._request("POST", "/v1/admin/snapshot", payload)

    def create_tenant(self, tenant: str | None = None) -> dict:
        payload = {"tenant": self._tenant(tenant)}
        return self._request("POST", "/v1/admin/tenants", payload)

    def list_tenants(self) -> list[dict]:
        return self._request("GET", "/v1/admin/tenants", idempotent=True)["tenants"]

    def cancel(self, request_id: str) -> dict:
        """Cancel the in-flight request with this id (cooperatively).

        Returns ``{"cancelled": true, ...}`` when the id was in flight;
        raises :class:`NotFoundError` when it already finished or was never
        admitted.  Safe to repeat: cancellation is idempotent.
        """
        return self._request("POST", f"/v1/cancel/{request_id}", {}, idempotent=True)

    def health(self) -> dict:
        return self._request("GET", "/v1/healthz", idempotent=True)

    # ------------------------------------------------------------- replication

    def replication_status(self) -> dict:
        """Role, fencing epoch, per-tenant lag/ack state of this node."""
        return self._request("GET", "/v1/replication/status", idempotent=True)

    def replication_snapshot(self, tenant: str | None = None) -> dict:
        """A shippable bootstrap snapshot document for one tenant."""
        name = self._tenant(tenant)
        return self._request(
            "GET", f"/v1/replication/snapshot?tenant={name}", idempotent=True
        )

    def replication_deltas(
        self,
        tenant: str | None = None,
        from_seq: int = 0,
        epoch: int | None = None,
        lineage: str | None = None,
        max_records: int | None = None,
    ) -> dict:
        """The leader's WAL tail past ``from_seq`` (also acks through it)."""
        name = self._tenant(tenant)
        path = f"/v1/replication/deltas?tenant={name}&from={from_seq}"
        if epoch is not None:
            path += f"&epoch={epoch}"
        if lineage:
            path += f"&lineage={lineage}"
        if max_records is not None:
            path += f"&max_records={max_records}"
        return self._request("GET", path, idempotent=True)

    def promote(self) -> dict:
        """Promote the connected follower to leader (manual failover)."""
        return self._request("POST", "/v1/admin/promote", {})

    def fence(self, epoch: int, lineage: str) -> dict:
        """Tell this node a newer leader exists: stop accepting writes."""
        return self._request(
            "POST", "/v1/replication/fence", {"epoch": epoch, "lineage": lineage}
        )

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "VerdictClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- private

    def _tenant(self, tenant: str | None) -> str:
        name = tenant if tenant is not None else self.tenant
        if not name:
            raise ClientError("no tenant given (set client.tenant or pass tenant=)")
        return name

    def _backoff(self, attempt: int, retry_after: str | None = None) -> float:
        """Sleep duration before retry ``attempt``.

        A parsable server ``Retry-After`` is a floor, jittered upward by up
        to 50% so a fleet of shed clients does not return in lockstep; the
        client never comes back *earlier* than the server asked.
        """
        if retry_after is not None:
            try:
                asked = float(retry_after)
            except ValueError:
                asked = None
            if asked is not None and asked >= 0:
                return asked * (1.0 + 0.5 * self._random.random())
        delay = min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))
        return delay * (0.5 + 0.5 * self._random.random())

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:
                pass
            self._connection = None

    def _rotate_endpoint(self) -> bool:
        """Switch to the next configured endpoint; False with only one."""
        if len(self._endpoints) < 2:
            return False
        self._drop_connection()
        self._endpoint_index = (self._endpoint_index + 1) % len(self._endpoints)
        self.host, self.port = self._endpoints[self._endpoint_index]
        self.failovers_performed += 1
        return True

    def _adopt_endpoint(self, endpoint: str) -> None:
        """Point at the leader a follower's rejection named."""
        host, port = parse_endpoint(endpoint)
        self._drop_connection()
        if (host, port) in self._endpoints:
            self._endpoint_index = self._endpoints.index((host, port))
        else:
            self._endpoints.append((host, port))
            self._endpoint_index = len(self._endpoints) - 1
        self.host, self.port = host, port
        self.failovers_performed += 1

    def _sleep_within_budget(
        self, delay: float, deadline: float | None, context: str
    ) -> None:
        """Back off for ``delay`` -- unless that would bust the retry budget."""
        if deadline is not None and time.monotonic() + delay > deadline:
            raise RetriesExhausted(
                f"{context}: retry budget of {self.retry_budget_s:g}s exhausted"
            )
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _error_info(data: bytes) -> dict:
        """The typed error object of a failure body, tolerating garbage."""
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError:
            return {}
        error = payload.get("error") if isinstance(payload, dict) else None
        return error if isinstance(error, dict) else {}

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        idempotent: bool = False,
        request_id: str | None = None,
        raw: bool = False,
    ) -> dict | str:
        context = f"{method} {path}"
        if _BAD_TARGET_RE.search(path):
            raise ClientError(f"{method} {path!r}: invalid request target")
        body = b""
        fields = ""
        if payload is not None:
            # Omit explicit Nones: optional fields simply stay unsent.
            body = json.dumps(
                {key: value for key, value in payload.items() if value is not None}
            ).encode()
            fields = f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        if request_id is not None:
            if "\r" in request_id or "\n" in request_id:
                raise ClientError(f"{context}: invalid request id {request_id!r}")
            fields += f"X-Request-Id: {request_id}\r\n"
        attempt = 0
        # Endpoint switches (rotations, followed leader hints) are bounded
        # separately from backoff retries: they are free of double-execution
        # risk but must not ping-pong forever between two confused nodes.
        hops = 0
        max_hops = len(self._endpoints) + 2
        deadline = (
            None
            if self.retry_budget_s is None
            else time.monotonic() + self.retry_budget_s
        )
        while True:
            if self._connection is None:
                # Connect explicitly so a refused/unreachable endpoint is
                # distinguishable from an in-flight drop: nothing was sent,
                # so retrying is safe for ANY request, mutating or not.
                try:
                    self._connection = _Connection(self.host, self.port, self.timeout_s)
                except OSError as error:
                    rotated = hops < max_hops and self._rotate_endpoint()
                    if rotated:
                        hops += 1
                    if attempt < self.max_retries and (
                        rotated or self.retry_transport_errors
                    ):
                        self.retries_performed += 1
                        delay = 0.0 if rotated else self._backoff(attempt)
                        self._sleep_within_budget(delay, deadline, context)
                        attempt += 1
                        continue
                    raise TransportError(
                        f"{context} failed: connect to {self.host}:{self.port}: "
                        f"{type(error).__name__}: {error}"
                    ) from error
            try:
                response = self._connection.exchange(method, path, fields, body)
            except (WireError, OSError) as error:
                self._drop_connection()
                # An in-flight drop leaves the request's fate unknown; only
                # requests that are safe to execute twice are replayed --
                # against the next endpoint when one is configured.
                if (
                    self.retry_transport_errors
                    and idempotent
                    and attempt < self.max_retries
                ):
                    if hops < max_hops and self._rotate_endpoint():
                        hops += 1
                    self.retries_performed += 1
                    self._sleep_within_budget(
                        self._backoff(attempt), deadline, context
                    )
                    attempt += 1
                    continue
                raise TransportError(
                    f"{context} failed: {type(error).__name__}: {error}"
                ) from error
            if response.will_close:
                # The next request reconnects through the explicit-connect
                # branch above, where a refused connect is always retryable.
                self._drop_connection()
            status, data = response.status, response.body
            retry_after = response.headers.get("Retry-After")
            self.last_request_id = response.headers.get("X-Request-Id")
            if status == 429:
                # A governor shed's body carries the tenant's quota state;
                # remember it (the Retry-After header it came with is
                # already derived from the bucket refill, so the backoff
                # below honors the quota automatically).
                quota = self._error_info(data).get("quota")
                if isinstance(quota, dict):
                    self.last_quota = quota
                if attempt < self.max_retries:
                    self.retries_performed += 1
                    self._sleep_within_budget(
                        self._backoff(attempt, retry_after), deadline, context
                    )
                    attempt += 1
                    continue
            if status == 503:
                info = self._error_info(data)
                if (
                    info.get("code") == "read_only_follower"
                    and self.follow_leader_hints
                    and hops < max_hops
                ):
                    # The follower rejected the request before doing any
                    # work, so retrying elsewhere is safe even for
                    # mutations.  Prefer the leader it named; otherwise try
                    # the next configured endpoint.
                    leader = info.get("leader")
                    if leader:
                        self._adopt_endpoint(leader)
                        hops += 1
                        continue
                    if self._rotate_endpoint():
                        hops += 1
                        continue
                if retry_after is not None and attempt < self.max_retries:
                    # An explicit "come back later" (e.g. a rolling
                    # restart); a bare 503 still fails fast below.
                    self.retries_performed += 1
                    self._sleep_within_budget(
                        self._backoff(attempt, retry_after), deadline, context
                    )
                    attempt += 1
                    continue
            if raw and 200 <= status < 300:
                return data.decode("utf-8", errors="replace")
            return self._decode(method, path, status, data)

    def _decode(self, method: str, path: str, status: int, data: bytes) -> dict:
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError as error:
            raise RemoteError(
                f"{method} {path}: unparsable {status} response", status=status
            ) from error
        if 200 <= status < 300:
            return payload
        error_info = payload.get("error", {}) if isinstance(payload, dict) else {}
        code = error_info.get("code")
        message = error_info.get("message", f"HTTP {status}")
        exc_type = _STATUS_EXCEPTIONS.get(status, RemoteError)
        if exc_type is SaturatedError:
            quota = error_info.get("quota")
            raise SaturatedError(
                f"{method} {path}: {message}",
                status=status,
                code=code,
                quota=quota if isinstance(quota, dict) else None,
            )
        raise exc_type(f"{method} {path}: {message}", status=status, code=code)
