"""End-to-end endpoint tests: real sockets, real client, in-process server."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve.client import (
    BadRequestError,
    ConflictError,
    NotFoundError,
    TransportError,
    VerdictClient,
)
from http_harness import sales_rows, start_server

ROWS = {"acme": 2_000, "globex": 2_400}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = start_server(tmp_path_factory.mktemp("http"), ROWS)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    with VerdictClient(port=server.port, tenant="acme") as client:
        yield client


class TestAsk:
    def test_exact_count(self, client):
        answer = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        assert answer["route"] == "exact"
        assert answer["rows"][0]["values"]["count_star"] == ROWS["acme"]
        assert answer["relative_error_bound"] == 0.0
        assert answer["budget_met"] is True

    def test_per_call_tenant_override(self, client):
        answer = client.ask(
            "SELECT COUNT(*) FROM sales", tenant="globex", max_relative_error=0.0
        )
        assert answer["rows"][0]["values"]["count_star"] == ROWS["globex"]

    def test_repeat_ask_hits_cache(self, client):
        sql = "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 31"
        first = client.ask(sql)
        again = client.ask(sql)
        assert first["from_cache"] is False
        assert again["from_cache"] is True
        assert again["rows"] == first["rows"]

    def test_invalid_sql_is_400(self, client):
        with pytest.raises(BadRequestError) as excinfo:
            client.ask("SELEC COUNT(*) FROM sales")
        assert excinfo.value.code == "invalid_sql"

    @pytest.mark.parametrize(
        "sql, code",
        [
            ("SELECT AVG(revenue) FROM sales WHERE nosuch < 3", "unknown_column"),
            ("SELECT AVG(revenue) FROM sales WHERE week < 'abc'", "invalid_expression"),
            ("SELECT AVG(revenue) FROM sales WHERE region < 3", "invalid_expression"),
        ],
    )
    def test_bad_column_or_comparison_is_400(self, server, client, sql, code):
        with pytest.raises(BadRequestError) as excinfo:
            client.ask(sql)
        assert excinfo.value.code == code
        request_id = client.last_request_id
        records = [
            entry
            for entry in map(json.loads, server.audit.path.read_text().splitlines())
            if entry["request_id"] == request_id
        ]
        assert [(entry["status"], entry["error"]) for entry in records] == [(400, code)]

    def test_unknown_table_is_404(self, client):
        with pytest.raises(NotFoundError) as excinfo:
            client.ask("SELECT COUNT(*) FROM missing")
        assert excinfo.value.code == "unknown_table"

    def test_unknown_tenant_is_404(self, client):
        with pytest.raises(NotFoundError) as excinfo:
            client.ask("SELECT COUNT(*) FROM sales", tenant="ghost")
        assert excinfo.value.code == "unknown_tenant"


class TestFeedback:
    def test_append_changes_count(self, server, tmp_path):
        with VerdictClient(port=server.port, tenant="globex") as client:
            before = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
            outcome = client.append("sales", sales_rows(32, seed=1))
            assert outcome["appended_rows"] == 32
            after = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        count = after["rows"][0]["values"]["count_star"]
        assert count == before["rows"][0]["values"]["count_star"] + 32

    def test_append_schema_mismatch_is_400(self, client):
        with pytest.raises(BadRequestError) as excinfo:
            client.append("sales", {"week": [1, 2]})
        assert excinfo.value.code == "bad_rows"

    @pytest.mark.parametrize("bad", [["x"], {"a": 1}])
    def test_append_unhashable_category_is_400_and_changes_nothing(self, client, bad):
        before = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        rows = sales_rows(2, seed=3)
        rows["region"] = [bad, "region_1"]
        with pytest.raises(BadRequestError) as excinfo:
            client.append("sales", rows)
        assert excinfo.value.code == "bad_rows"
        after = client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        assert after["rows"][0]["values"] == before["rows"][0]["values"]
        # Every column is still encodable: a query over any of them answers.
        client.ask("SELECT AVG(price) FROM sales WHERE week >= 1", max_relative_error=0.0)

    def test_append_unknown_table_is_404(self, client):
        with pytest.raises(NotFoundError) as excinfo:
            client.append("missing", sales_rows(2))
        assert excinfo.value.code == "unknown_table"

    def test_record_then_train_enables_learned_route(self, client):
        for low in (1, 12, 25, 38):
            sql = (
                "SELECT AVG(revenue) FROM sales "
                f"WHERE week >= {low} AND week <= {low + 14}"
            )
            assert client.record(sql) is True
        assert client.train()["trained"] is True
        answer = client.ask(
            "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 27"
        )
        assert answer["route"] in ("learned", "cached")

    def test_record_invalid_sql_never_burns_a_scan(self, client):
        admitted_before = client.metrics(tenant="")["admission"]["admitted"]
        with pytest.raises(BadRequestError):
            client.record("SELECT FROM FROM")
        assert client.metrics(tenant="")["admission"]["admitted"] == admitted_before


class TestMetricsAndAdmin:
    def test_server_wide_metrics(self, client):
        metrics = client.metrics(tenant="")
        assert metrics["admission"]["max_active"] == 4
        assert metrics["tenants"]["registered"] == len(ROWS)
        assert metrics["audit_entries"] > 0

    def test_tenant_metrics(self, client):
        client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        metrics = client.metrics()
        assert metrics["tenant"] == "acme"
        assert metrics["lifecycle_phase"] == "serving"
        assert metrics["metrics"]["total_requests"] >= 1

    def test_create_and_list_tenants(self, client):
        created = client.create_tenant("newco")
        assert created["tenant"] == "newco"
        names = {record["tenant"] for record in client.list_tenants()}
        assert {"acme", "globex", "newco"} <= names

    def test_create_duplicate_is_409(self, client):
        with pytest.raises(ConflictError) as excinfo:
            client.create_tenant("acme")
        assert excinfo.value.code == "tenant_exists"

    def test_snapshot_persists(self, server, client):
        assert client.snapshot()["snapshot"] == "snapshot"
        store_dir = server.tenants.tenant_directory("acme") / "store"
        assert (store_dir / "snapshot.json").is_file()

    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_unknown_route_is_404(self, client):
        with pytest.raises(NotFoundError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.code == "unknown_route"


class TestWirePlumbing:
    """Raw-socket cases the well-behaved client never produces."""

    def raw(self, server, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def test_malformed_json_is_400(self, server):
        status, payload = self.raw(
            server, "POST", "/v1/ask", body=b"{not json", headers={"Content-Length": "9"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_missing_content_length_is_400(self, server):
        # http.client always sets Content-Length itself, so speak raw bytes.
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/ask HTTP/1.1\r\nHost: t\r\n\r\n")
            # Headers and body may arrive in separate segments; read until
            # the declared body length is in hand.
            data = b""
            while b"\r\n\r\n" not in data:
                data += sock.recv(65536)
            head, _, body = data.partition(b"\r\n\r\n")
            length = next(
                int(line.split(b":", 1)[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
            while len(body) < length:
                body += sock.recv(65536)
        assert head.split(b" ", 2)[1] == b"400"
        assert b"missing Content-Length" in body

    def test_oversized_body_is_400(self, server):
        status, payload = self.raw(
            server,
            "POST",
            "/v1/ask",
            body=b"",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        assert status == 400

    def test_non_object_body_is_400(self, server):
        status, payload = self.raw(server, "POST", "/v1/ask", body=b"[1, 2]")
        assert status == 400
        assert "object" in payload["error"]["message"]


class TestAudit:
    def test_requests_are_journalled(self, server, client):
        client.ask("SELECT COUNT(*) FROM sales", max_relative_error=0.0)
        with pytest.raises(NotFoundError):
            client.ask("SELECT 1 FROM nowhere")
        entries = [
            json.loads(line)
            for line in server.audit.path.read_text().splitlines()
        ]
        assert entries, "audit log is empty"
        sequences = [entry["seq"] for entry in entries]
        assert sequences == sorted(set(sequences)), "audit seq must be unique+ordered"
        asks = [entry for entry in entries if entry["endpoint"] == "POST /v1/ask"]
        assert any(entry["status"] == 200 and entry["tenant"] == "acme" for entry in asks)
        assert any(entry.get("error") == "unknown_table" for entry in asks)
        assert all("latency_s" in entry for entry in entries)

    @staticmethod
    def _records_for(server, request_id):
        return [
            entry
            for entry in map(json.loads, server.audit.path.read_text().splitlines())
            if entry.get("request_id") == request_id
        ]

    def test_audit_line_exists_before_the_response_is_sent(
        self, server, client, monkeypatch
    ):
        """A client holding its answer can always find the audit record."""
        from repro.serve.http import server as server_module

        seen_at_send = {}
        real_respond = server_module._Handler._respond

        def respond(handler, status, payload, **kwargs):
            request_id = kwargs["request_id"]
            seen_at_send[request_id] = self._records_for(server, request_id)
            return real_respond(handler, status, payload, **kwargs)

        monkeypatch.setattr(server_module._Handler, "_respond", respond)
        client.ask("SELECT COUNT(*) FROM sales", request_id="audited-first-1")
        (record,) = seen_at_send["audited-first-1"]
        assert record["status"] == 200 and record["endpoint"] == "POST /v1/ask"

    def test_failed_send_appends_a_client_gone_record(
        self, server, client, monkeypatch
    ):
        from repro.serve.http import server as server_module

        real_respond = server_module._Handler._respond
        failed = []

        def respond(handler, status, payload, **kwargs):
            if kwargs["request_id"] == "vanishing-client-1" and not failed:
                failed.append(True)
                handler.close_connection = True
                raise BrokenPipeError("client hung up")
            return real_respond(handler, status, payload, **kwargs)

        monkeypatch.setattr(server_module._Handler, "_respond", respond)
        with VerdictClient(port=server.port, tenant="acme", max_retries=0) as doomed:
            with pytest.raises(TransportError):
                doomed.ask("SELECT COUNT(*) FROM sales", request_id="vanishing-client-1")
        client.health()  # the server is still serving
        first, follow_up = self._records_for(server, "vanishing-client-1")
        assert first["status"] == 200 and "client_gone" not in first
        assert follow_up["client_gone"] is True
        assert follow_up["status"] == 200 and follow_up["tenant"] == "acme"
        assert follow_up["seq"] > first["seq"]


class TestTenantIsolation:
    def test_answer_caches_do_not_leak_across_tenants(self, tmp_path):
        # Same SQL, both tenants: a shared/global cache would serve one
        # tenant's answer to the other. Distinct row counts make that
        # detectable. Fresh server: the module one has mutated tenants.
        sql = "SELECT COUNT(*) FROM sales"
        rows = {"east": 1_300, "west": 1_700}
        server = start_server(tmp_path, rows)
        try:
            with VerdictClient(port=server.port) as client:
                for _ in range(2):  # second pass is cache-hot per tenant
                    for tenant, expected in rows.items():
                        answer = client.ask(sql, tenant=tenant, max_relative_error=0.0)
                        assert answer["rows"][0]["values"]["count_star"] == expected
        finally:
            server.close()

    def test_lru_eviction_snapshots_and_reloads(self, tmp_path):
        rows = {"t0": 1_200, "t1": 1_500, "t2": 1_800}
        server = start_server(tmp_path, rows, max_loaded=1)
        try:
            with VerdictClient(port=server.port) as client:
                for tenant in rows:
                    client.record(
                        "SELECT AVG(revenue) FROM sales WHERE week >= 2 AND week <= 30",
                        tenant=tenant,
                    )
                stats = client.metrics(tenant="")["tenants"]
                assert stats["loaded"] <= 1
                assert stats["evictions"] >= 2
                # Eviction wrote each victim's snapshot; a reload restores it.
                for tenant in rows:
                    metrics = client.metrics(tenant=tenant)
                    assert metrics["restored"] >= 1, f"{tenant} lost state on eviction"
                    count = client.ask(
                        "SELECT COUNT(*) FROM sales",
                        tenant=tenant,
                        max_relative_error=0.0,
                    )["rows"][0]["values"]["count_star"]
                    assert count == rows[tenant]
        finally:
            server.close()


class TestServerShutdown:
    def test_close_is_idempotent_and_rejects_after(self, tmp_path):
        server = start_server(tmp_path, {"solo": 1_200}, audit=False)
        with VerdictClient(port=server.port, tenant="solo") as client:
            assert client.health()["status"] == "ok"
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(Exception):  # refused or reset: socket is gone
            with VerdictClient(port=server.port, tenant="solo") as client:
                client.health()
