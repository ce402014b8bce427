"""Golden contract of the audit log: one line per endpoint x outcome.

One scripted in-process session drives every endpoint of the front door --
successes, the typed failures, a governor shed under a brownout-widened
budget, a cancelled ask, a torn connection -- and collects the audit lines
each case appends.  Every line's keys (in order) and values must equal
``audit_lines_golden.json`` beside this file.  The per-session and timing
fields (``ts``, ``seq``, ``session``, ``latency_s``, ``request_id``) are
left out; every other field the log writes is pinned, on failure lines too.

Regenerate the golden file only for a deliberate audit-format change::

    PYTHONPATH=src python tests/serve/http/test_audit_lines.py
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.obs.trace import Tracer
from repro.serve.governor import BrownoutController, ResourceGovernor
from http_harness import sales_rows, start_server
from test_governor_http import FakeClock, escalate

GOLDEN = Path(__file__).with_name("audit_lines_golden.json")

#: Fields that differ run to run; everything else on a line is pinned.
UNPINNED = ("ts", "seq", "session", "latency_s", "request_id")

COUNT_SQL = "SELECT COUNT(*) FROM sales"
AVG_SQL = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 45"


class Session:
    """Plain HTTP/1.1 exchanges with one server, and its audit lines."""

    def __init__(self, server) -> None:
        self.server = server
        self.read = 0

    def call(self, method: str, path: str, body=None, request_id: str | None = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            headers = {} if request_id is None else {"X-Request-Id": request_id}
            if body is not None:
                data = body if isinstance(body, bytes) else json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
                connection.request(method, path, body=data, headers=headers)
            else:
                connection.request(method, path, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def raw(self, data: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", self.server.port), timeout=60) as sock:
            sock.sendall(data)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def new_lines(self, expected: int | None = None) -> list[dict]:
        """The audit lines written since the last call, normalised."""
        deadline = time.monotonic() + 30.0
        while True:
            text = self.server.audit.path.read_text()
            lines = [json.loads(line) for line in text.splitlines() if line.strip()]
            fresh = lines[self.read:]
            if expected is None or len(fresh) >= expected or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        self.read = len(lines)
        shaped = [shape(line) for line in fresh]
        return sorted(shaped, key=lambda line: json.dumps(line, sort_keys=True))


def shape(line: dict) -> dict:
    """Keys in written order, then the pinned values (floats to 9 digits)."""
    pinned = {
        key: float(f"{value:.9g}") if isinstance(value, float) else value
        for key, value in line.items()
        if key not in UNPINNED
    }
    return {"keys": list(line), "values": pinned}


def ask(tenant: str, sql: str, **fields) -> dict:
    return {"tenant": tenant, "sql": sql, **fields}


def wait_in_flight(server) -> None:
    for _ in range(4_000):
        if server.governor.cancels.in_flight() == 1:
            return
        time.sleep(0.005)
    raise AssertionError("ask never became cancellable")


def run_main_session(root: Path) -> dict[str, list[dict]]:
    """Every endpoint x outcome against one traced, audited leader."""
    server = start_server(
        root,
        {"acme": 1_500},
        max_active=2,
        tracer=Tracer(ring_capacity=32, log_path=None),
        flush_every=1,  # every learned-state change reaches the WAL at once
    )
    session = Session(server)
    cases: dict[str, list[dict]] = {}

    def case(name: str, expected: int | None = None) -> None:
        cases[name] = session.new_lines(expected)

    try:
        session.call("POST", "/v1/ask", ask("acme", COUNT_SQL, max_relative_error=0.0))
        case("ask_exact")
        session.call("POST", "/v1/ask", ask("acme", COUNT_SQL, explain=True))
        case("ask_explain")
        session.call("POST", "/v1/ask", ask("acme", "SELEC nothing FROM"))
        case("ask_invalid_sql")
        session.call("POST", "/v1/ask", ask("acme", "SELECT COUNT(*) FROM nope"))
        case("ask_unknown_table")
        session.call("POST", "/v1/ask", ask("ghost", COUNT_SQL))
        case("ask_unknown_tenant")
        session.call("POST", "/v1/ask", b"{not json")
        case("ask_bad_json")

        # A slowed ask, cancelled mid-flight: the cancel's 200 and the ask's
        # 499, then a repeat cancel that finds nothing in flight.
        faults.install(
            FaultPlan([FaultRule(point="aqp.batch", action="delay", delay_s=0.25)])
        )
        try:
            asker = threading.Thread(
                target=session.call,
                args=("POST", "/v1/ask", ask("acme", AVG_SQL, max_relative_error=0.001)),
                kwargs={"request_id": "doomed-ask-1"},
                daemon=True,
            )
            asker.start()
            wait_in_flight(server)
            session.call("POST", "/v1/cancel/doomed-ask-1")
            asker.join(timeout=60)
        finally:
            faults.clear()
        case("cancel_in_flight", expected=2)
        session.call("POST", "/v1/cancel/doomed-ask-1")
        case("cancel_unknown")
        session.call("POST", "/v1/cancel/bad~id!")
        case("cancel_invalid_id")

        rows = sales_rows(5, seed=3)
        session.call(
            "POST", "/v1/feedback/append", {"tenant": "acme", "table": "sales", "rows": rows}
        )
        case("append")
        session.call(
            "POST", "/v1/feedback/append", {"tenant": "acme", "table": "nope", "rows": rows}
        )
        case("append_unknown_table")
        session.call("POST", "/v1/feedback/record", {"tenant": "acme", "sql": AVG_SQL})
        case("record")
        session.call("POST", "/v1/feedback/record", {"tenant": "acme", "sql": "SELEC"})
        case("record_invalid_sql")

        _, body = session.call("GET", "/v1/replication/deltas?tenant=acme&from=0")
        case("replication_deltas_behind_snapshot")
        horizon = json.loads(body)["error"]["snapshot_seq"]
        session.call("GET", f"/v1/replication/deltas?tenant=acme&from={horizon}")
        case("replication_deltas")
        session.call("GET", "/v1/replication/deltas?tenant=acme")
        case("replication_deltas_no_from")
        session.call("GET", "/v1/replication/snapshot?tenant=acme")
        case("replication_snapshot")
        session.call("GET", "/v1/replication/status")
        case("replication_status")

        session.call("POST", "/v1/admin/train", {"tenant": "acme", "wait": True})
        case("train")
        session.call("POST", "/v1/admin/snapshot", {"tenant": "acme"})
        case("snapshot")
        session.call("POST", "/v1/admin/tenants", {"tenant": "beta"})
        case("tenant_create")
        session.call("POST", "/v1/admin/tenants", {"tenant": "beta"})
        case("tenant_create_exists")
        session.call("GET", "/v1/admin/tenants")
        case("tenant_list")

        session.call("GET", "/v1/metrics")
        case("metrics")
        session.call("GET", "/v1/metrics?tenant=acme")
        case("metrics_tenant")
        session.call("GET", "/v1/metrics?tenant=ghost")
        case("metrics_unknown_tenant")
        session.call("GET", "/v1/metrics?tenant=acme&format=xml")
        case("metrics_bad_format")
        session.call("GET", "/v1/metrics?format=prometheus")
        case("metrics_prometheus")
        session.call("GET", "/v1/trace/never-served-1")
        case("trace_unknown")
        session.call("GET", "/v1/healthz")
        case("healthz")

        session.call("POST", "/v1/admin/promote", {})
        case("promote_leader")
        session.call("POST", "/v1/replication/fence", {"epoch": 5, "lineage": "other"})
        case("fence")
        session.call("POST", "/v1/replication/fence", {"epoch": 3, "lineage": "older"})
        case("fence_stale")
        session.call("POST", "/v1/feedback/record", {"tenant": "acme", "sql": AVG_SQL})
        case("record_fenced")
        session.call("POST", "/v1/admin/promote", {})
        case("promote_fenced")

        session.call("GET", "/v1/nope")
        case("unknown_route")
        session.call("PUT", "/v1/ask", {})
        case("not_implemented")
        session.raw(b"GARBAGE\r\n\r\n")
        case("malformed_request_line")

        # The handler is held at its fault point while the client resets
        # the connection, so the response's send fails: a second line with
        # client_gone follows the first.
        plan = faults.install(
            FaultPlan(
                [FaultRule(point="http.handler", action="delay", delay_s=0.5, times=1)]
            )
        )
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=60)
            sock.sendall(b"GET /v1/metrics?tenant=acme HTTP/1.1\r\nHost: x\r\n\r\n")
            for _ in range(4_000):
                if plan.hits("http.handler") == 1:
                    break
                time.sleep(0.005)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            case("client_gone", expected=2)
        finally:
            faults.clear()
    finally:
        faults.clear()
        server.close()
    return cases


def run_brownout_session(root: Path) -> dict[str, list[dict]]:
    """A one-token tenant bucket under a level-1 brownout."""
    clock = FakeClock()
    brownout = BrownoutController(
        saturated_windows=1, exact_relax_level=1, exact_floor=0.5, clock=clock
    )
    escalate(brownout, clock, 1)
    assert brownout.level == 1
    server = start_server(
        root,
        {"acme": 1_500},
        governor=ResourceGovernor(tenant_qps=0.5, burst_s=2.0),
        brownout=brownout,
    )
    session = Session(server)
    try:
        body = ask("acme", COUNT_SQL, max_relative_error=0.0)
        session.call("POST", "/v1/ask", body)
        widened = session.new_lines()
        session.call("POST", "/v1/ask", body)
        shed = session.new_lines()
    finally:
        server.close()
    return {"brownout_widened_ask": widened, "brownout_governor_shed": shed}


def run_session(root: Path) -> dict[str, list[dict]]:
    faults.clear()
    (root / "main").mkdir()
    (root / "brownout").mkdir()
    return {
        **run_main_session(root / "main"),
        **run_brownout_session(root / "brownout"),
    }


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_session(tmp_path_factory.mktemp("audit-lines"))


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_case_is_pinned(session):
    assert sorted(session) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_audit_lines_match_golden(session, case):
    assert session[case] == GOLDEN_CASES[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the golden file
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        cases = run_session(Path(scratch))
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(cases)} cases)", file=sys.stderr)
