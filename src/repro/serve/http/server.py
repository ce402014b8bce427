"""The HTTP/JSON front door: a stdlib ``ThreadingHTTPServer`` over tenants.

No third-party web framework -- the whole network layer is the standard
library, so the front door deploys anywhere the engine does.  Endpoints
(all under ``/v1``, JSON request/response):

=======  ========================  ==========================================
method   path                      purpose
=======  ========================  ==========================================
POST     ``/v1/ask``               answer one SQL request within its budget
                                   (``explain: true`` returns the planner's
                                   decision record without executing;
                                   ``trace: true`` attaches the span tree)
POST     ``/v1/cancel/<id>``       cooperatively cancel the in-flight ask
                                   whose ``X-Request-Id`` is ``<id>``
                                   (bypasses admission; the cancelled ask
                                   itself answers 499 ``cancelled``)
POST     ``/v1/feedback/append``   append rows to a tenant fact table
POST     ``/v1/feedback/record``   full-scan a query and record its snippets
GET      ``/v1/metrics``           server-wide (or ``?tenant=`` scoped)
                                   stats; ``?format=prometheus`` renders the
                                   text exposition instead of JSON
GET      ``/v1/trace/<id>``        finished span tree of one request id
POST     ``/v1/admin/train``       run the offline step (sync or background)
POST     ``/v1/admin/snapshot``    force a durable full snapshot
POST     ``/v1/admin/tenants``     create a tenant
GET      ``/v1/admin/tenants``     list tenants
POST     ``/v1/admin/promote``     promote this follower to leader under a
                                   fresh fencing epoch (manual failover)
GET      ``/v1/healthz``           liveness probe (reports replication role,
                                   fencing epoch, and max lag)
GET      ``/v1/replication/...``   WAL shipping: ``snapshot`` (checksummed
                                   bootstrap document), ``deltas?from=<seq>``
                                   (CRC'd WAL tail; the pull doubles as the
                                   follower's durable-apply ack), ``status``
POST     ``/v1/replication/fence`` another node claims a higher epoch: stop
                                   accepting writes (used on deposed leaders)
=======  ========================  ==========================================

Mutating endpoints (``feedback/*``, ``admin/train``, ``admin/snapshot``,
tenant create) are gated on the replication role: a follower rejects them
with a typed 503 carrying a ``leader`` hint, and a fenced-out ex-leader
rejects them with a hard 409 ``epoch_fenced``.  ``ask`` is always served
(read-only degraded mode), with snippet recording forced off on
non-writable nodes.  Replication endpoints bypass admission: a saturated
leader must still ship its WAL.

The handler reads the request head itself, through the head codec it
shares with the client (:mod:`repro.serve.http.wire`: one pass over the
header lines, same limits and status codes as ``http.server``), and writes
each response as one buffer in one ``sendall``.  A request that fails
before routing -- malformed request line, unsupported HTTP version,
oversized head, a verb with no ``do_*`` -- still takes the typed path
below: JSON error envelope, request id, audit line; the connection then
closes, because the rest of that request was never read.

Every request is stamped with a request id -- adopted from a valid
``X-Request-Id`` header or minted -- echoed in the response header and
payload, recorded on the audit line, and (with a tracer) keying the
request's span tree in the trace ring and JSONL trace log.  Trace and audit
line are both written *before* the response is sent, so a client holding its
answer can always look either up; a send that then fails appends a second
audit line with ``client_gone`` under the same request id.  A request's
facts move as values: ``_route`` binds the parsed input (and the request id
and span an endpoint needs) to its endpoint, which returns one ``_Outcome``
that the audit line and the response are both written from.

Execution model: connection-handler threads run the query themselves,
gated by one shared :class:`~repro.serve.http.admission.AdmissionController`
so a burst cannot run unbounded engine work -- beyond ``max_active``
concurrent requests and ``max_queued`` waiters, requests are shed with 429.
``ask`` and both ``feedback`` endpoints pay admission; metrics, admin, and
health do not (operators must be able to look at a saturated server).

Shutdown (:meth:`VerdictHTTPServer.close`) is ordered: stop admitting
(queued waiters fail fast with 503, admitted requests finish), drain, stop
the accept loop, close every tenant (each writes its final snapshot), close
the audit log.  In-flight requests therefore always terminate with a real
response -- 200 if admitted before the close, 503 otherwise.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from contextlib import ExitStack
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple
from urllib.parse import parse_qs

from repro import faults
from repro.core.linalg import blas_threads
from repro.deadline import CancelToken
from repro.errors import QueryCancelled
from repro.obs.metrics import Registry, render_prometheus
from repro.obs.trace import Span, Tracer, child, mint_request_id, valid_request_id
from repro.serve.governor import BrownoutController, ResourceGovernor
from repro.serve.http import protocol
from repro.serve.http.admission import AdmissionController, ShedLoad
from repro.serve.http.audit import AuditLog
from repro.serve.http.protocol import ApiError
from repro.serve.http.tenants import TenantManager
from repro.serve.http.wire import MAX_HEAD_LINES  # noqa: F401 - re-exported limit
from repro.serve.http.wire import MAX_LINE_BYTES, Headers, HeadTooLarge, read_head
from repro.serve.replication import ReplicationManager
from repro.sqlparser.parser import parse_query

#: Cap on delta records per replication pull (the follower batches anyway).
MAX_SHIP_RECORDS = 1024

_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _Outcome(NamedTuple):
    """What one request came to: its response, audit facts and aftermath."""

    status: int
    payload: dict | str
    #: Audit-line fields beyond the request's identity (tenant, route, ...).
    facts: Mapping[str, object] = MappingProxyType({})
    retry_after_s: float | None = None
    #: Set by a fired "torn" ship fault: the (mangled) response is sent
    #: first, then the process dies -- modelling a leader that crashed
    #: mid-ship after the bytes left the socket.
    die_after_send: bool = False


def _failure(error: Exception, **facts) -> _Outcome:
    """The typed response to a failure, after the ``facts`` learned first."""
    mapped = protocol.map_exception(error)
    if mapped.code == "cancelled":
        facts["cancelled"] = mapped.extra["reason"]
    facts["error"] = mapped.code
    return _Outcome(mapped.status, mapped.body(), facts, mapped.retry_after_s)


def _check_tables(catalog, parsed) -> None:
    """404 for any table the SQL names that the tenant's catalog lacks."""
    for name in (parsed.table, *(join.table for join in parsed.joins)):
        if not catalog.has_table(name):
            raise ApiError(404, "unknown_table", f"unknown table {name!r}")


class VerdictHTTPServer(ThreadingHTTPServer):
    """Multi-tenant HTTP front door over per-tenant Verdict services."""

    daemon_threads = True
    allow_reuse_address = True
    # Burst admission is the AdmissionController's job, not the kernel's:
    # the listen backlog must absorb a whole client fleet connecting at
    # once (the default of 5 turns client 6+ into 1s SYN retransmits).
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        tenants: TenantManager,
        max_active: int = 4,
        max_queued: int = 16,
        queue_timeout_s: float | None = 5.0,
        audit: AuditLog | None = None,
        tracer: Tracer | None = None,
        replication: ReplicationManager | None = None,
        governor: ResourceGovernor | None = None,
        brownout: BrownoutController | None = None,
    ):
        super().__init__(address, _Handler)
        self.tenants = tenants
        # Always present: an unconfigured governor admits everything but
        # still hosts the cancel registry and per-tenant counters, so
        # POST /v1/cancel works on an ungoverned server too.
        self.governor = governor if governor is not None else ResourceGovernor()
        # Brownout is opt-in (None = budgets are never touched).
        self.brownout = brownout
        # A server constructed without replication wiring is a standalone
        # leader at epoch 1: every write gate below passes unconditionally.
        self.replication = (
            replication if replication is not None else ReplicationManager()
        )
        self.admission = AdmissionController(
            max_active=max_active,
            max_queued=max_queued,
            queue_timeout_s=queue_timeout_s,
        )
        self.audit = audit
        # Every request gets a request id regardless; the tracer decides
        # whether a span tree is recorded against it.
        self.tracer = tracer
        self.started_ts = time.time()
        self.registry = self._declare_metrics()
        # (epoch second, its Date-header rendering): _Handler._date() formats
        # once per second.  The pair is swapped whole, so handler threads
        # racing over a second boundary each store the same value.
        self.date_cache: tuple[int, str] = (0, "")
        self._serve_thread: threading.Thread | None = None
        self._close_lock = threading.Lock()
        self._closed = False

    def _declare_metrics(self) -> Registry:
        """The server's own families; each component declares its own."""
        registry = Registry()
        registry.gauge(
            "verdict_uptime_seconds",
            "Seconds since server start.",
            fn=lambda: time.time() - self.started_ts,
        )
        registry.gauge(
            "verdict_blas_threads",
            "Threads per BLAS call (1 = pinned; 0 = no OpenBLAS found).",
            fn=blas_threads,
        )
        audit, tracer = self.audit, self.tracer
        if audit is not None:
            registry.counter(
                "verdict_audit_entries_total",
                "Audit-log records written this session.",
                fn=lambda: audit.entries_written,
            )
        if tracer is not None:
            registry.counter(
                "verdict_traces_finished_total",
                "Request traces finished (ring + logs).",
                fn=lambda: tracer.stats()["finished"],
            )
            registry.counter(
                "verdict_slow_queries_total",
                "Traces exceeding the slow-query threshold.",
                fn=lambda: tracer.stats()["slow_queries"],
            )
        return registry

    # ---------------------------------------------------------------- control

    def start(self) -> "VerdictHTTPServer":
        """Run the accept loop on a background thread; returns ``self``."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="verdict-http", daemon=True
        )
        self._serve_thread.start()
        return self

    @property
    def port(self) -> int:
        return self.server_address[1]

    def close(self) -> None:
        """Ordered graceful shutdown; idempotent and thread-safe."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            # 1. Stop admitting: queued waiters get 503, admitted finish.
            self.admission.close()
            # 2. Drain admitted requests so no engine work is in flight.
            self.admission.wait_idle(timeout_s=60.0)
            # 3. Stop the accept loop and release the listening socket.
            self.shutdown()
            self.server_close()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=10.0)
            # 4. Close tenants last: every service writes its final
            #    snapshot with zero requests in flight anywhere.
            self.tenants.close()
            if self.audit is not None:
                self.audit.close()
            if self.tracer is not None:
                self.tracer.close()

    def __enter__(self) -> "VerdictHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests; see the module docstring."""

    protocol_version = "HTTP/1.1"
    # Idle keep-alive connections die on their own rather than pinning
    # handler threads forever.
    timeout = 60.0
    # A response is one write, but writes still come back to back -- the
    # ``100 Continue`` interim line before the final response, the answers
    # to pipelined requests -- and with Nagle on the second small segment
    # waits out the peer's delayed ACK (~40ms on localhost).
    disable_nagle_algorithm = True
    server: VerdictHTTPServer

    def handle_one_request(self) -> None:
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            handler = getattr(self, "do_" + self.command, None)
            if handler is None:
                # The body, if any, was not read: the stream cannot be reused.
                self.close_connection = True
                self._dispatch(self.command, protocol.not_implemented(self.command))
                return
            handler()
        except TimeoutError:
            # A read or write timed out: discard the connection.
            self.close_connection = True

    def parse_request(self) -> bool:
        """Split the head into command/path/version/headers.

        ``False`` means the request is over: a blank request line closes
        the connection silently (as ``http.server`` does); any other
        malformed head was answered with its typed error and closes too.
        """
        try:
            return self._split_head()
        except ApiError as failure:
            self.close_connection = True
            self._dispatch(self.command or "-", failure)
            return False

    def _split_head(self) -> bool:
        self.command, self.path, self.headers = None, "", Headers([])
        # Unknown until the request line says; only a two-word line is 0.9.
        self.request_version = ""
        self.close_connection = True
        if len(self.raw_requestline) > MAX_LINE_BYTES:
            raise protocol.uri_too_long()
        words = str(self.raw_requestline, "iso-8859-1").split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION_RE.fullmatch(version)
            if match is None:
                raise protocol.bad_request("bad request version")
            number = (int(match[1]), int(match[2]))
            if number >= (2, 0):
                raise protocol.unsupported_version(number)
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            raise protocol.bad_request("bad request syntax")
        command, path = words[:2]
        if len(words) == 2:
            self.request_version = "HTTP/0.9"
            if command != "GET":
                raise protocol.bad_request("bad HTTP/0.9 request type")
        # A path starting '//' would read as a scheme-less absolute URI.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = read_head(self.rfile.readline)
        except HeadTooLarge as error:
            raise protocol.headers_too_large(str(error)) from None
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        expect = self.headers.get("Expect", "").lower()
        if expect == "100-continue" and self.request_version >= "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # ---------------------------------------------------------------- routing

    def _dispatch(self, method: str, failure: ApiError | None = None) -> None:
        """Answer one request; ``failure`` is a verdict reached before routing."""
        started = time.perf_counter()
        # A fragment never reaches a server, so the target is path[?query].
        path, _, query = self.path.partition("?")
        # Every request carries a request id end to end: adopted from a
        # valid X-Request-Id header, minted otherwise.  It is echoed in the
        # response header and payload, stamped on the audit record, and
        # keys the trace in the ring/trace log.
        offered = self.headers.get("X-Request-Id") or ""
        request_id = offered if valid_request_id(offered) else mint_request_id()
        tracer = self.server.tracer
        if tracer is None:
            outcome = self._handle(method, path, query, failure, request_id, None)
        else:
            with tracer.request(request_id, name=f"{method} {path}") as root:
                outcome = self._handle(method, path, query, failure, request_id, root)
                root.set(status=outcome.status)
                if "error" in outcome.facts:
                    root.set(error_code=outcome.facts["error"])
        status, payload, facts, retry_after, die_after_send = outcome
        if isinstance(payload, dict):
            payload = {**payload, "request_id": request_id}
        latency = time.perf_counter() - started
        # The audit line is written before the response is sent, so a client
        # holding its answer can always find the record of it.
        audit = self.server.audit
        if audit is not None:
            replication = self.server.replication
            identity = {
                "endpoint": f"{method} {path}",
                "status": status,
                "request_id": request_id,
                "role": replication.role,
                "epoch": replication.epoch.number,
            }
            audit.record(latency_s=latency, **identity, **facts)
        try:
            self._respond(
                status, payload, retry_after_s=retry_after, request_id=request_id
            )
        except (BrokenPipeError, ConnectionResetError):
            if audit is not None:
                audit.record(
                    latency_s=time.perf_counter() - started,
                    tenant=facts["tenant"],
                    client_gone=True,
                    **identity,
                )
        if die_after_send:
            faults.hard_exit()

    def _handle(
        self,
        method: str,
        path: str,
        query: str,
        failure: ApiError | None,
        request_id: str,
        span: Span | None,
    ) -> _Outcome:
        """Route one request, mapping every failure to a typed outcome."""
        tenant = None  # named by the input: a failure's audit line keeps it
        try:
            if failure is not None:
                raise failure
            faults.inject("http.handler", method=method, path=path)
            tenant, endpoint = self._route(method, path, query, request_id, span)
            outcome = endpoint()
        except Exception as error:  # engine failures -> typed mapping
            outcome = _failure(error)
        return outcome._replace(facts={"tenant": tenant, **outcome.facts})

    def _route(
        self, method: str, path: str, query: str, request_id: str, span: Span | None
    ) -> tuple[str | None, Callable[[], _Outcome]]:
        """Parse the request's input; bind it to the endpoint that serves it."""
        if method == "POST" and path == "/v1/ask":
            request = protocol.parse_ask(self._read_json())
            return request.tenant, partial(self._ask, request, request_id, span)
        if method == "POST" and path == "/v1/feedback/append":
            request = protocol.parse_append(self._read_json())
            return request.tenant, partial(self._append, request, span)
        if method == "POST" and path == "/v1/feedback/record":
            request = protocol.parse_record(self._read_json())
            return request.tenant, partial(self._record, request, span)
        if method == "POST" and path.startswith("/v1/cancel/"):
            # Cancellation bypasses admission: it must land on a saturated
            # server -- that is exactly when cancelling matters most.
            return None, partial(self._cancel, path[len("/v1/cancel/"):])
        if method == "GET" and path == "/v1/metrics":
            params = parse_qs(query)
            tenant = params.get("tenant", [None])[0]
            return tenant, partial(self._metrics, tenant, params.get("format", [None])[0])
        if method == "GET" and path.startswith("/v1/trace/"):
            return None, partial(self._trace, path[len("/v1/trace/"):])
        if method == "POST" and path == "/v1/admin/train":
            request = protocol.parse_train(self._read_json())
            return request.tenant, partial(self._train, request)
        if method == "POST" and path == "/v1/admin/snapshot":
            request = protocol.parse_tenant_only(self._read_json())
            return request.tenant, partial(self._snapshot, request.tenant)
        if method == "POST" and path == "/v1/admin/tenants":
            request = protocol.parse_tenant_only(self._read_json())
            return request.tenant, partial(self._create_tenant, request.tenant)
        if method == "GET" and path == "/v1/admin/tenants":
            return None, lambda: _Outcome(200, {"tenants": self.server.tenants.list_tenants()})
        if method == "POST" and path == "/v1/admin/promote":
            protocol.parse_promote(self._read_json())
            return None, self._promote
        if method == "GET" and path == "/v1/replication/deltas":
            self._require_leader()
            params = parse_qs(query)
            tenant = self._query_param(params, "tenant")
            return tenant, partial(self._replication_deltas, tenant, params)
        if method == "GET" and path == "/v1/replication/snapshot":
            self._require_leader()
            tenant = self._query_param(parse_qs(query), "tenant")
            return tenant, partial(self._replication_snapshot, tenant)
        if method == "GET" and path == "/v1/replication/status":
            return None, self._replication_status
        if method == "POST" and path == "/v1/replication/fence":
            return None, partial(self._fence, protocol.parse_fence(self._read_json()))
        if method == "GET" and path == "/v1/healthz":
            return None, self._healthz
        raise protocol.unknown_route(method, path)

    def _healthz(self) -> _Outcome:
        """Aggregate health: the server itself plus every resident tenant.

        Always 200 (the process is alive and answering); the *status* field
        says how well: ``ok``, ``degraded`` (some tenant has an open
        breaker, a quarantined store, or a dead trainer -- the per-tenant
        reasons say which), or ``draining`` during shutdown.
        """
        server = self.server
        tenants = server.tenants.resident_health()
        reasons = [
            f"tenant {name}: {reason}"
            for name, health in sorted(tenants.items())
            for reason in health["reasons"]
        ]
        reasons += server.replication.health_reasons()
        brownout = server.brownout
        if brownout is not None:
            brownout.tick()
            if brownout.level > 0:
                reasons.append(
                    f"brownout at level {brownout.level}: error budgets widened "
                    f"under sustained queue saturation"
                )
        if server.admission.closed:
            status = "draining"
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "reasons": reasons,
            "tenants": tenants,
            "replication": server.replication.summary(),
            "governor": server.governor.snapshot(),
            "uptime_s": time.time() - server.started_ts,
        }
        if brownout is not None:
            payload["brownout"] = brownout.snapshot()
        return _Outcome(200, payload)

    # -------------------------------------------------------------- endpoints

    def _ask(self, request: protocol.AskRequest, request_id: str, span: Span | None) -> _Outcome:
        server = self.server
        widened: dict = {}
        try:
            # Client-fault errors (bad SQL, unknown table) must not reach the
            # routing layer, where they would surface as opaque 500s.
            parsed = parse_query(request.sql)
            if request.explain:
                # EXPLAIN never executes (no scan, no engine work), so like
                # metrics and health it bypasses admission: the plan must be
                # inspectable on a saturated server.
                with server.tenants.lease(request.tenant) as tenant:
                    _check_tables(tenant.service.catalog, parsed)
                    effective, widened = self._effective_budget(tenant, request.budget)
                    plan = tenant.service.explain(request.sql, budget=effective)
                    plan["governance"] = self._governance_explain(
                        tenant, parsed, request.budget, effective, request.tenant
                    )
                facts = {**widened, "explain": True}
                return _Outcome(200, {"tenant": request.tenant, "explain": plan}, facts)
            with ExitStack() as stack:
                # The lease comes first: pricing a request needs the tenant's
                # planner, and a lease only pins residency (it is safe to hold
                # across an admission queue wait).
                with server.tenants.lease(request.tenant) as tenant:
                    _check_tables(tenant.service.catalog, parsed)
                    effective, widened = self._effective_budget(tenant, request.budget)
                    # Tenant governance before the shared gate: a tenant over
                    # its quota is shed in microseconds with its own Retry-After
                    # and never occupies a global queue slot.
                    cost = server.governor.price_query(
                        tenant.service.planner,
                        parsed,
                        effective or tenant.service.default_budget,
                    )
                    with child(span, "governance") as governance_span:
                        stack.enter_context(
                            server.governor.admit(request.tenant, cost, span=governance_span)
                        )
                    # The admission span covers only the wait for a slot (its
                    # outcome/queue-wait attrs are set inside the controller);
                    # the slot itself is held for the whole execution.  The
                    # measured wait feeds the brownout saturation detector; a
                    # shed counts as a full-horizon observation (the queue was
                    # saturated enough to refuse us).
                    wait_started = time.perf_counter()
                    try:
                        with child(span, "admission") as admission_span:
                            stack.enter_context(server.admission.admit(span=admission_span))
                    except ShedLoad:
                        if server.brownout is not None:
                            horizon = server.admission.queue_timeout_s
                            server.brownout.observe(
                                horizon
                                if horizon is not None
                                else 2.0 * server.brownout.threshold_s
                            )
                        raise
                    if server.brownout is not None:
                        server.brownout.observe(time.perf_counter() - wait_started)
                    # Degraded read-only mode: followers (and fenced leaders)
                    # still answer asks, but never record snippets -- recording
                    # is a write and writes arrive via replication only.
                    record = request.record
                    if not server.replication.is_writable:
                        record = False
                    # The cancel token rides the whole execution: a POST
                    # /v1/cancel under this request id (or the disconnect probe
                    # noticing the client hung up) arms it, and the next
                    # scan/online-agg checkpoint raises QueryCancelled.
                    token = CancelToken(probe=self._disconnect_probe())
                    with server.governor.cancels.track(request_id, token, request.tenant):
                        try:
                            answer = tenant.service.query(
                                request.sql,
                                budget=effective,
                                record=record,
                                cancel=token,
                                span=span,
                            )
                        except QueryCancelled as error:
                            server.governor.record_cancel(request.tenant, error.reason)
                            raise
        except Exception as error:
            # The brownout level that widened the budget stays on the line.
            return _failure(error, **widened)
        state = protocol.answer_to_state(answer)
        response = {"tenant": request.tenant, "answer": state}
        if request.trace:
            # The root span is still open (it closes in _dispatch after the
            # response is rendered), so the attached tree reports the wall
            # time accumulated so far; the ring holds the finished version.
            response["trace"] = None if span is None else span.to_dict()
        facts = {**widened, "route": state["route"], "error_bound": state["relative_error_bound"]}
        return _Outcome(200, response, facts)

    def _effective_budget(self, tenant, requested) -> tuple[object, dict]:
        """The budget this request runs under after brownout widening.

        With brownout disabled (or at level 0) the requested budget passes
        through untouched -- including ``None`` (the service default).  At
        a positive level the default is resolved so it can be widened too,
        and the audit facts returned beside it name the level that did it.
        """
        brownout = self.server.brownout
        if brownout is None:
            return requested, {}
        brownout.tick()
        if brownout.level == 0:
            return requested, {}
        base = requested if requested is not None else tenant.service.default_budget
        effective = brownout.effective_budget(base)
        if effective is base:
            return effective, {}
        return effective, {"brownout_level": brownout.level}

    def _governance_explain(
        self, tenant, parsed, requested, effective, tenant_name: str
    ) -> dict:
        """The EXPLAIN ``governance`` section: quota, price, brownout."""
        server = self.server
        pricing_budget = effective or tenant.service.default_budget
        budget_state = None
        if effective is not None:
            budget_state = {
                "max_relative_error": effective.max_relative_error,
                "max_latency_s": effective.max_latency_s,
                "deadline_s": effective.deadline_s,
            }
        return {
            "tenant_quota": server.governor.quota_state(tenant_name),
            "price_tokens": server.governor.price_query(
                tenant.service.planner, parsed, pricing_budget
            ),
            "budget_widened": effective is not requested,
            "effective_budget": budget_state,
            "brownout": (
                server.brownout.snapshot() if server.brownout is not None else None
            ),
        }

    def _cancel(self, request_id: str) -> _Outcome:
        """Arm the cancel token of an in-flight ask by request id."""
        # The (empty) body must be drained or the keep-alive stream desyncs.
        self._read_body(required=False)
        if not valid_request_id(request_id):
            raise protocol.bad_request(f"invalid request id {request_id!r}")
        found, tenant = self.server.governor.cancels.cancel(request_id)
        if not found:
            missing = ApiError(
                404,
                "unknown_request",
                f"no in-flight request {request_id!r} (already finished, "
                "never admitted, or served elsewhere)",
            )
            return _failure(missing, cancel_target=request_id)
        facts = {"cancel_target": request_id, "tenant": tenant or None}
        return _Outcome(200, {"cancelled": True, "request": request_id}, facts)

    def _disconnect_probe(self):
        """A rate-limited peek that reports whether the client hung up.

        Zero-timeout ``select`` + ``MSG_PEEK``: an EOF (empty read) or a
        socket error means the client is gone -- cancel the query, nobody
        is listening.  Readable *data* is a pipelined follow-up request on
        the keep-alive connection, not a disconnect.  The ``http.disconnect``
        fault point lets REPRO_FAULTS simulate a vanished client ("torn")
        or kill/delay mid-probe.
        """
        sock = self.connection

        def probe() -> str | None:
            directive = faults.inject("http.disconnect")
            if directive is not None and directive.action == "torn":
                return "disconnected"
            try:
                readable, _, _ = select.select([sock], [], [], 0)
                if not readable:
                    return None
                if sock.recv(1, socket.MSG_PEEK) == b"":
                    return "disconnected"
            except OSError:
                return "disconnected"
            return None

        return probe

    def _append(self, request: protocol.AppendRequest, span: Span | None) -> _Outcome:
        from repro.db.table import Table

        self.server.replication.require_writable()
        with ExitStack() as stack:
            with child(span, "admission") as admission_span:
                stack.enter_context(self.server.admission.admit(span=admission_span))
            with self.server.tenants.lease(request.tenant) as tenant:
                catalog = tenant.service.catalog
                if not catalog.has_table(request.table):
                    raise ApiError(
                        404, "unknown_table", f"unknown table {request.table!r}"
                    )
                schema = catalog.table(request.table).schema
                appended = Table(request.table, schema, request.rows)
                adjusted = tenant.service.append(
                    request.table, appended, adjust=request.adjust
                )
                self._sync_ack(tenant, span)
        payload = {
            "tenant": request.tenant,
            "table": request.table,
            "appended_rows": len(appended),
            "snippets_adjusted": adjusted,
        }
        return _Outcome(200, payload, {"rows": len(appended)})

    def _record(self, request: protocol.RecordRequest, span: Span | None) -> _Outcome:
        self.server.replication.require_writable()
        # Parse errors are the client's fault and must not burn a full
        # sample scan: surface them before admission.
        parsed = parse_query(request.sql)
        with ExitStack() as stack:
            with child(span, "admission") as admission_span:
                stack.enter_context(self.server.admission.admit(span=admission_span))
            with self.server.tenants.lease(request.tenant) as tenant:
                _check_tables(tenant.service.catalog, parsed)
                recorded = tenant.service.record_answer(request.sql, span=span)
                if recorded:
                    self._sync_ack(tenant, span)
        return _Outcome(200, {"tenant": request.tenant, "recorded": recorded})

    def _sync_ack(self, tenant, span: Span | None) -> None:
        """In sync-ack mode, block the ack until a follower confirms the write.

        The write is first flushed (its WAL record must exist to ship), then
        the handler waits for a follower pull whose ``from`` covers the
        record's sequence -- the follower's statement that it durably applied
        it.  On timeout the write is durable *locally* but unconfirmed
        remotely: a typed 503 without Retry-After, because retrying the
        mutation would double-apply it.
        """
        replication = self.server.replication
        if replication.ack_mode != "sync" or not replication.is_leader:
            return
        tenant.service.flush()
        seq = tenant.store.sequence
        with child(span, "replication.ack") as ack_span:
            confirmed = replication.wait_replicated(tenant.name, seq)
            if ack_span is not None:
                ack_span.set(seq=seq, confirmed=confirmed)
        if not confirmed:
            raise protocol.replication_timeout(
                f"write is durable locally at seq {seq} but no follower "
                f"confirmed it within {replication.ack_timeout_s:g}s"
            )

    def _metrics(self, tenant_name: str | None, format: str | None = None) -> _Outcome:
        server = self.server
        if format is not None and format != "prometheus":
            raise protocol.bad_request(f"unknown metrics format {format!r}")
        if format == "prometheus":
            return _Outcome(200, self._prometheus(tenant_name))
        if tenant_name is None:
            state = {
                "uptime_s": time.time() - server.started_ts,
                # Replay determinism assumes one BLAS thread (0: no OpenBLAS).
                "blas_threads": blas_threads(),
                "admission": server.admission.snapshot(),
                "governor": server.governor.snapshot(),
                "tenants": server.tenants.stats(),
                "audit_entries": (
                    server.audit.entries_written if server.audit else 0
                ),
            }
            if server.brownout is not None:
                server.brownout.tick()
                state["brownout"] = server.brownout.snapshot()
            if server.tracer is not None:
                state["tracer"] = server.tracer.stats()
            return _Outcome(200, state)
        with server.tenants.lease(tenant_name) as tenant:
            service = tenant.service
            payload = {
                "tenant": tenant_name,
                "restored": service.restored,
                "cache_size": service.cache_size(),
                "lifecycle_phase": service.lifecycle_phase,
                # Metrics plus robustness state: per-route breakers, the
                # background trainer, and the store's recovery counters.
                "metrics": service.observability(),
            }
            return _Outcome(200, payload)

    def _prometheus(self, tenant_name: str | None) -> str:
        """Prometheus text exposition: server-wide or one tenant's families.

        The server-wide view renders the server's own registry, the
        admission controller, the governor, the brownout controller, the
        replication manager and every *resident* tenant's service registry
        under a ``tenant`` label.  Evicted tenants are deliberately not
        loaded: a metrics scrape must stay cheap and side-effect-free.
        """
        server = self.server
        if tenant_name is not None:
            with server.tenants.lease(tenant_name) as tenant:
                registry = tenant.service.metrics.registry
            return render_prometheus([(registry, {"tenant": tenant_name})])
        sources = [
            (server.registry, {}),
            (server.admission.registry, {}),
            (server.governor.registry, {}),
        ]
        if server.brownout is not None:
            server.brownout.tick()
            sources.append((server.brownout.registry, {}))
        sources.append((server.replication.registry, {}))
        for name in server.tenants.stats()["loaded_tenants"]:
            try:
                with server.tenants.lease(name) as tenant:
                    sources.append((tenant.service.metrics.registry, {"tenant": name}))
            except ApiError:
                continue  # evicted or deleted between the snapshot and lease
        return render_prometheus(sources)

    def _trace(self, request_id: str) -> _Outcome:
        tracer = self.server.tracer
        if tracer is None:
            raise ApiError(
                404, "tracing_disabled", "the server runs without a tracer"
            )
        trace = tracer.get(request_id)
        if trace is None:
            raise ApiError(
                404,
                "unknown_trace",
                f"no trace for request {request_id!r} (expired from the "
                f"ring, or the id was never served)",
            )
        return _Outcome(200, {"trace": trace})

    def _train(self, request: protocol.TrainRequest) -> _Outcome:
        self.server.replication.require_writable()
        with self.server.tenants.lease(request.tenant) as tenant:
            if request.wait:
                tenant.service.train(request.learn)
                return _Outcome(200, {"tenant": request.tenant, "trained": True})
            tenant.service.train_async(request.learn)
            return _Outcome(200, {"tenant": request.tenant, "scheduled": True})

    def _snapshot(self, tenant_name: str) -> _Outcome:
        self.server.replication.require_writable()
        with self.server.tenants.lease(tenant_name) as tenant:
            outcome = tenant.service.snapshot()
        return _Outcome(200, {"tenant": tenant_name, "snapshot": outcome})

    def _create_tenant(self, tenant_name: str) -> _Outcome:
        self.server.replication.require_writable()
        return _Outcome(201, self.server.tenants.create(tenant_name))

    # ------------------------------------------------------------- replication

    def _require_leader(self) -> None:
        replication = self.server.replication
        if not replication.is_leader:
            raise protocol.read_only_follower(
                "replication shipping endpoints are leader-only",
                leader=replication.leader_url,
            )

    @staticmethod
    def _query_param(params: dict, name: str, required: bool = True) -> str | None:
        values = params.get(name)
        if not values:
            if required:
                raise protocol.bad_request(f"missing query parameter {name!r}")
            return None
        return values[0]

    def _replication_deltas(self, tenant_name: str, params: dict) -> _Outcome:
        """Ship the WAL tail past ``from`` -- and treat the pull as an ack.

        ``from=N`` is the follower's statement that it has *durably applied*
        through sequence N: it is recorded via ``note_pull`` before anything
        else, which is what releases leader writes blocked in sync-ack mode.
        A ``from`` behind the snapshot horizon cannot be served from the
        delta log and gets a typed 409 pointing at the snapshot endpoint.
        """
        try:
            from_seq = int(self._query_param(params, "from"))
            max_records = int(self._query_param(params, "max_records", False) or 256)
            epoch_param = self._query_param(params, "epoch", False)
            remote_epoch = None if epoch_param is None else int(epoch_param)
        except ValueError:
            raise protocol.bad_request(
                "'from', 'max_records' and 'epoch' must be integers"
            ) from None
        max_records = max(1, min(max_records, MAX_SHIP_RECORDS))
        remote_lineage = self._query_param(params, "lineage", False) or ""
        replication = self.server.replication
        if remote_epoch is not None and remote_epoch > replication.epoch.number:
            # The puller already follows a newer leader than us: we are the
            # deposed one.  Fence ourselves and reject the pull.
            replication.fence(remote_epoch, remote_lineage)
            raise protocol.epoch_fenced(
                f"this leader's epoch {replication.epoch.number} was "
                f"superseded by epoch {remote_epoch}",
                local=(replication.epoch.number, replication.epoch.lineage),
                remote=(remote_epoch, remote_lineage),
            )
        replication.note_pull(tenant_name, from_seq)
        with self.server.tenants.lease(tenant_name) as tenant:
            store = tenant.store
            if from_seq < store.snapshot_sequence:
                raise protocol.snapshot_required(
                    tenant_name, from_seq, store.snapshot_sequence
                )
            lines = store.delta_tail(from_seq, max_records)
            state = store.replication_state()
        torn = False
        if lines:
            directive = faults.inject(
                "repl.ship.deltas", tenant=tenant_name, records=len(lines)
            )
            torn = directive is not None and directive.action == "torn"
            if torn:
                # Ship a half-written last record and die once the response
                # is flushed: the canonical torn-tail crash, as seen by a
                # follower instead of a local restart.
                lines = lines[:-1] + [lines[-1][: max(1, len(lines[-1]) // 2)]]
        payload = {
            "tenant": tenant_name,
            "from": from_seq,
            "lines": lines,
            "seq": state["sequence"],
            "snapshot_seq": state["snapshot_sequence"],
            "epoch": state["epoch"],
            "lineage": state["lineage"],
        }
        return _Outcome(200, payload, {"records": len(lines)}, die_after_send=torn)

    def _replication_snapshot(self, tenant_name: str) -> _Outcome:
        """Ship a full snapshot for follower bootstrap.

        Pending learned state is flushed first; if the delta log is
        non-empty, a fresh snapshot is written so the shipped document alone
        reproduces the leader's current state.
        """
        with self.server.tenants.lease(tenant_name) as tenant:
            store = tenant.store
            tenant.service.flush()
            if store.delta_log_length > 0:
                tenant.service.snapshot()
            # The JSON document is ASCII; a damaged byte is replaced, and
            # the follower's checksum refuses it.
            document = store.snapshot_path.read_bytes().decode("utf-8", "replace")
            state = store.replication_state()
        directive = faults.inject("repl.ship.snapshot", tenant=tenant_name)
        torn = directive is not None and directive.action == "torn"
        if torn:
            document = document[: max(1, len(document) // 2)]
        payload = {
            "tenant": tenant_name,
            "document": document,
            "seq": state["snapshot_sequence"],
            "epoch": state["epoch"],
            "lineage": state["lineage"],
        }
        return _Outcome(200, payload, die_after_send=torn)

    def _replication_status(self) -> _Outcome:
        server = self.server
        payload = {
            "replication": server.replication.status(),
            "stores": {
                name: store.replication_state()
                for name, store in server.tenants.resident_stores()
            },
        }
        return _Outcome(200, payload)

    def _fence(self, request: protocol.FenceRequest) -> _Outcome:
        epoch = self.server.replication.fence(request.epoch, request.lineage)
        # Stamp resident stores too so even in-process flushes (auto-train,
        # shutdown snapshots) carry the new epoch from here on.
        for _, store in self.server.tenants.resident_stores():
            store.adopt_epoch(epoch.number, epoch.lineage)
        return _Outcome(
            200, {"fenced": True, "epoch": epoch.number, "lineage": epoch.lineage}
        )

    def _promote(self) -> _Outcome:
        status = self.server.replication.promote()
        return _Outcome(
            200, {"promoted": self.server.replication.is_leader, "replication": status}
        )

    # ----------------------------------------------------------------- plumbing

    def _read_json(self) -> object:
        body = self._read_body(required=True)
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise protocol.bad_request(f"body is not valid JSON: {error}") from None

    def _read_body(self, required: bool) -> bytes:
        """The request body, read in full; a bad length is a 400 that closes.

        Without a ``Content-Length`` there is no body to read, which only a
        caller that needs one (``required``) rejects.  Any failure leaves
        body bytes unread, so the connection closes rather than desync.
        """
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            if not required:
                return b""
            self.close_connection = True  # unread body would desync keep-alive
            raise protocol.bad_request("missing Content-Length")
        try:
            length = int(length_header)
        except ValueError:
            self.close_connection = True
            raise protocol.bad_request("bad Content-Length") from None
        if length < 0 or length > protocol.MAX_BODY_BYTES:
            self.close_connection = True
            raise protocol.bad_request(
                f"body of {length} bytes exceeds {protocol.MAX_BODY_BYTES}"
            )
        return self.rfile.read(length)

    def _date(self) -> str:
        now = int(time.time())
        stamp, text = self.server.date_cache
        if stamp != now:
            text = self.date_time_string(now)
            self.server.date_cache = (now, text)
        return text

    def _respond(
        self,
        status: int,
        payload: dict | str,
        retry_after_s: float | None = None,
        request_id: str | None = None,
    ) -> None:
        if isinstance(payload, str):
            # Pre-rendered text body (the Prometheus exposition).
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # 0.9 has no status line and no headers
            return
        head = [
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self._date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if request_id is not None:
            head.append(f"X-Request-Id: {request_id}")
        if status == 429:
            hint = retry_after_s if retry_after_s is not None else 1
            head.append(f"Retry-After: {hint:g}")
        if self.close_connection:
            head.append("Connection: close")
        if self.command == "HEAD":
            body = b""  # the headers describe the body a GET would carry
        # One buffer, one sendall (wfile is the unbuffered socket writer).
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
