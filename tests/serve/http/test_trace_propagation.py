"""End-to-end tracing over HTTP: ids, span trees, exposition, hammer.

The contract under test (ISSUE 8 tentpole):

* every response carries a ``request_id`` (client-supplied ``X-Request-Id``
  adopted when valid, minted otherwise) that keys the audit log, the trace
  ring, and the trace JSONL -- one id, three places, always consistent;
* an executed request's trace is a *complete* span tree -- admission,
  cache lookup, planning, route attempt with predicted-vs-observed cost,
  partition scan -- and stays complete under concurrency: spans never
  leak between simultaneous requests (each request's span is passed down
  as an argument, never shared);
* ``/v1/metrics?format=prometheus`` is valid text exposition 0.0.4.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.obs.trace import Tracer, read_jsonl, valid_request_id
from repro.serve.client import NotFoundError, SaturatedError, VerdictClient
from http_harness import start_server

ROWS = {"acme": 2_000, "globex": 2_400}

#: One exposition sample line: name{labels} value
SAMPLE_RE = re.compile(
    r"\A(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)\Z"
)


def walk(node: dict):
    """Every span in a trace tree, depth-first (events included)."""
    yield node
    for child in node.get("children", ()):
        yield from walk(child)


def span_names(trace: dict) -> list[str]:
    return [node["name"] for node in walk(trace)]


def check_exposition(text: str) -> dict[str, float]:
    """Validate 0.0.4 structure; returns {series: value}."""
    series: dict[str, float] = {}
    typed: set[str] = set()
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in typed, f"duplicate TYPE for {name}"
            typed.add(name)
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        base = re.sub(r"_(bucket|sum|count)$", "", match["name"])
        assert match["name"] in typed or base in typed, f"undeclared {match['name']}"
        series[f"{match['name']}{{{match['labels'] or ''}}}"] = float(match["value"])
    return series


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    tracer = Tracer(ring_capacity=128, log_path=root / "trace" / "trace.jsonl")
    server = start_server(root, ROWS, tracer=tracer)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    with VerdictClient(port=server.port, tenant="acme") as client:
        yield client


class TestRequestIds:
    def test_every_response_carries_an_id(self, client):
        answer = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        assert answer["rows"][0]["values"]["count_star"] == ROWS["acme"]
        assert valid_request_id(client.last_request_id)

    def test_client_supplied_id_is_adopted_end_to_end(self, client):
        client.ask(
            "SELECT AVG(revenue) FROM sales WHERE week <= 40",
            request_id="caller-chose-this-1",
        )
        assert client.last_request_id == "caller-chose-this-1"
        trace = client.trace("caller-chose-this-1")
        assert trace["request_id"] == "caller-chose-this-1"
        assert trace["status"] == "ok"

    def test_invalid_offered_id_is_replaced(self, client):
        client.ask("SELECT COUNT(*) FROM sales", request_id="bad id!")
        assert client.last_request_id != "bad id!"
        assert valid_request_id(client.last_request_id)

    def test_ids_are_unique_across_requests(self, client):
        ids = set()
        for _ in range(5):
            client.ask("SELECT COUNT(*) FROM sales")
            ids.add(client.last_request_id)
        assert len(ids) == 5


class TestTraceRetrieval:
    def test_executed_request_has_complete_span_tree(self, client):
        client.ask(
            "SELECT AVG(revenue) FROM sales WHERE week >= 7 AND week <= 33",
            request_id="full-tree-1",
        )
        trace = client.trace("full-tree-1")
        names = span_names(trace)
        assert "admission" in names
        assert "cache.lookup" in names
        assert "plan" in names
        assert "scan" in names
        route_spans = [
            node for node in walk(trace) if node["name"].startswith("route.")
        ]
        assert route_spans, f"no route attempt span in {names}"
        attempted = route_spans[0]
        # Predicted vs observed cost/error sit side by side on the attempt.
        assert attempted["attrs"]["predicted_seconds"] > 0
        assert attempted["attrs"]["observed_seconds"] >= 0
        assert "predicted_error" in attempted["attrs"]
        assert "observed_error" in attempted["attrs"]
        # Timings are populated on every span.
        for node in walk(trace):
            assert node["wall_s"] >= 0
            assert node["status"] == "ok"

    def test_trace_true_attaches_tree_inline(self, client):
        payload = client.ask_traced(
            "SELECT AVG(revenue) FROM sales WHERE week >= 2 AND week <= 48"
        )
        assert payload["answer"]["route"]
        trace = payload["trace"]
        assert trace is not None
        assert trace["request_id"] == payload["request_id"]
        assert "plan" in span_names(trace)

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(NotFoundError) as excinfo:
            client.trace("never-served-0")
        assert excinfo.value.code == "unknown_trace"


class TestExplainOverHTTP:
    def test_decision_record_round_trips(self, client):
        plan = client.explain("SELECT AVG(revenue) FROM sales WHERE week <= 26")
        assert plan["supported"] is True
        assert plan["table"] == "sales"
        routes = [candidate["route"] for candidate in plan["candidates"]]
        assert routes == ["cached", "learned", "online_agg", "exact"]
        assert plan["chosen_route"] in routes
        assert plan["cost_model_inputs"]["estimated_exact_rows"] == ROWS["acme"]

    def test_explain_works_on_a_saturated_server(self, tmp_path):
        """EXPLAIN bypasses admission: inspectable exactly when it matters."""
        saturated = start_server(
            tmp_path, {"solo": 1_200}, max_active=1, max_queued=0, audit=False
        )
        try:
            slot = saturated.admission.admit()
            slot.__enter__()
            try:
                with VerdictClient(
                    port=saturated.port, tenant="solo", max_retries=0
                ) as client:
                    with pytest.raises(SaturatedError):
                        client.ask("SELECT COUNT(*) FROM sales")
                    plan = client.explain("SELECT COUNT(*) FROM sales")
                    assert plan["chosen_route"]
            finally:
                slot.__exit__(None, None, None)
        finally:
            saturated.close()


class TestPrometheusEndpoint:
    def test_server_wide_exposition_parses(self, client):
        client.ask("SELECT COUNT(*) FROM sales")
        text = client.metrics_prometheus(tenant="")
        series = check_exposition(text)
        assert any(key.startswith("verdict_uptime_seconds") for key in series)
        assert any(
            key.startswith("verdict_admission_outcomes_total") for key in series
        )
        assert any(
            key.startswith("verdict_requests_total") and 'tenant="acme"' in key
            for key in series
        )
        assert any(key.startswith("verdict_traces_finished_total") for key in series)

    def test_blas_thread_gauge_in_both_views(self, client):
        from repro.core.linalg import blas_threads

        series = check_exposition(client.metrics_prometheus(tenant=""))
        assert series["verdict_blas_threads{}"] == blas_threads()
        assert client.metrics(tenant="")["blas_threads"] == blas_threads()
        # Pinned at import wherever an OpenBLAS is mapped.
        assert blas_threads() in (0, 1)

    def test_tenant_scoped_exposition(self, client):
        client.ask("SELECT COUNT(*) FROM sales")
        series = check_exposition(client.metrics_prometheus(tenant="acme"))
        assert all("tenant=" not in key or 'tenant="acme"' in key for key in series)
        assert any(key.startswith("verdict_requests_total") for key in series)

    def test_unknown_format_is_400(self, client):
        from repro.serve.client import BadRequestError

        with pytest.raises(BadRequestError):
            client._request("GET", "/v1/metrics?format=xml", idempotent=True)


class TestAdmissionOutcomes:
    def test_snapshot_breakdown_and_queue_wait(self, server, client):
        client.ask("SELECT COUNT(*) FROM sales")
        snapshot = server.admission.snapshot()
        assert snapshot["admitted_immediate"] >= 1
        assert {
            "admitted_queued",
            "shed_queue_full",
            "shed_timeout",
            "queue_wait",
            "retry_after_s",
        } <= set(snapshot)
        assert 1.0 <= snapshot["retry_after_s"] <= 30.0

    def test_429_carries_retry_after_header(self, tmp_path):
        server = start_server(
            tmp_path, {"solo": 1_200}, max_active=1, max_queued=0, audit=False
        )
        try:
            slot = server.admission.admit()
            slot.__enter__()
            try:
                with VerdictClient(
                    port=server.port, tenant="solo", max_retries=0
                ) as client:
                    with pytest.raises(SaturatedError):
                        client.ask("SELECT COUNT(*) FROM sales")
                import http.client as http_client

                connection = http_client.HTTPConnection("127.0.0.1", server.port)
                try:
                    connection.request(
                        "POST",
                        "/v1/ask",
                        body='{"tenant": "solo", "sql": "SELECT COUNT(*) FROM sales"}',
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    assert response.status == 429
                    retry_after = response.getheader("Retry-After")
                    assert retry_after is not None
                    assert 1.0 <= float(retry_after) <= 30.0
                    response.read()
                finally:
                    connection.close()
            finally:
                slot.__exit__(None, None, None)
        finally:
            server.close()


WORKERS = 6
ASKS_PER_WORKER = 4


class TestConcurrencyHammer:
    def test_span_trees_stay_complete_and_ids_consistent(self, tmp_path):
        """N concurrent asks: every trace is a whole, non-interleaved tree.

        Distinct SQL per request forces every ask through plan + route +
        scan (no cache hits), so a span handed to the wrong request would
        show up as a tree with zero or two ``plan`` spans.
        The request id must then agree across the response payload, the
        audit log, and the trace JSONL.
        """
        tracer = Tracer(
            ring_capacity=WORKERS * ASKS_PER_WORKER * 2,
            log_path=tmp_path / "trace" / "trace.jsonl",
        )
        server = start_server(
            tmp_path,
            ROWS,
            max_active=4,
            max_queued=64,
            queue_timeout_s=30.0,
            tracer=tracer,
        )
        results: list[dict] = []
        failures: list[str] = []
        barrier = threading.Barrier(WORKERS)

        def worker(index: int) -> None:
            tenant = "acme" if index % 2 == 0 else "globex"
            try:
                with VerdictClient(
                    port=server.port,
                    tenant=tenant,
                    max_retries=10,
                    backoff_base_s=0.02,
                    seed=index,
                ) as client:
                    barrier.wait(timeout=30)
                    for attempt in range(ASKS_PER_WORKER):
                        week = index * ASKS_PER_WORKER + attempt + 1
                        payload = client.ask_traced(
                            f"SELECT COUNT(*) FROM sales WHERE week >= {week}",
                            max_relative_error=0.0,
                            record=False,
                        )
                        results.append(payload)
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(f"worker {index}: {error!r}")

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            assert not failures, failures
            assert len(results) == WORKERS * ASKS_PER_WORKER

            ids = [payload["request_id"] for payload in results]
            assert len(set(ids)) == len(ids), "request ids must be unique"

            for payload in results:
                trace = payload["trace"]
                assert trace["request_id"] == payload["request_id"]
                names = span_names(trace)
                # Exactly one of each stage: a leaked span from a
                # concurrent request would break these counts.
                assert names.count("admission") == 1, names
                assert names.count("cache.lookup") == 1, names
                assert names.count("plan") == 1, names
                route_count = sum(
                    1 for name in names if name.startswith("route.")
                )
                assert route_count >= 1, names
                assert "scan" in names
        finally:
            server.close()

        # The same ids, in the audit log...
        (audit_path,) = (tmp_path / "audit").glob("*.jsonl")
        audit_ids = {
            entry.get("request_id")
            for entry in read_jsonl(audit_path)
            if entry.get("endpoint") == "POST /v1/ask"
        }
        assert set(ids) <= audit_ids

        # ...and in the trace JSONL, each tree still whole.
        logged = {
            entry["request_id"]: entry
            for entry in read_jsonl(tmp_path / "trace" / "trace.jsonl")
        }
        assert set(ids) <= set(logged)
        for request_id in ids:
            assert span_names(logged[request_id]).count("plan") == 1
