"""The shape of a traced request's span tree, pinned per request kind.

One traced server session drives six kinds of request -- an exact ask, a
learned ask that records, a cache hit, an escalation past a skipped route,
a grouped learned ask, and ``POST /v1/feedback/record`` -- and checks each
finished tree's span names, nesting and attribute keys.  Values that vary
run to run (timings, row counts) are not pinned; which spans exist, where
they hang, and which attributes they carry are.
"""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer
from repro.serve.client import VerdictClient
from http_harness import start_server

ANSWER_ATTRS = {"status", "route", "error_bound", "model_seconds", "budget_met"}
GOVERNANCE_ATTRS = {"governor", "cost_tokens"}
ADMISSION_ATTRS = {"admission"}
SCAN_ATTRS = {
    "table",
    "partitions_total",
    "partitions_scanned",
    "partitions_pruned",
    "rows_total",
    "rows_scanned",
}
ROUTE_ATTRS = {
    "predicted_seconds",
    "predicted_rows",
    "predicted_error",
    "observed_seconds",
    "observed_error",
    "batches",
    "degraded",
}
INFERENCE_ATTRS = {"table", "cells", "synopsis_size"}


def names(node: dict) -> list[str]:
    return [child["name"] for child in node.get("children", ())]


def child(node: dict, name: str) -> dict:
    (found,) = [c for c in node.get("children", ()) if c["name"] == name]
    return found


def attr_keys(node: dict) -> set[str]:
    return set(node.get("attrs", {}))


def assert_front_door(trace: dict) -> None:
    """An executed ask: answer attrs on the root, governance then admission."""
    assert trace["name"] == "POST /v1/ask"
    assert trace["status"] == "ok"
    assert attr_keys(trace) == ANSWER_ATTRS
    assert names(trace)[:3] == ["governance", "admission", "cache.lookup"]
    assert attr_keys(child(trace, "governance")) == GOVERNANCE_ATTRS
    assert child(trace, "governance")["attrs"]["governor"] == "admitted"
    assert attr_keys(child(trace, "admission")) == ADMISSION_ATTRS
    assert child(trace, "admission")["attrs"]["admission"] == "admitted"
    assert attr_keys(child(trace, "cache.lookup")) == {"hit"}
    for node in trace.get("children", ()):
        assert "children" not in node or node["name"].startswith("route.")


def assert_plan(trace: dict) -> None:
    plan = child(trace, "plan")
    assert attr_keys(plan) == {"supported", "candidates"}
    assert "children" not in plan


def assert_scan(node: dict) -> None:
    assert node["name"] == "scan"
    assert attr_keys(node) == SCAN_ATTRS
    assert node["attrs"]["table"] == "sales"
    assert "children" not in node


def assert_learned_route(route: dict) -> None:
    """Each sample batch under the learned route: a scan, then inference."""
    assert attr_keys(route) == ROUTE_ATTRS
    batches = route["attrs"]["batches"]
    assert batches >= 1
    assert names(route) == ["scan", "inference"] * batches
    for node in route["children"]:
        if node["name"] == "scan":
            assert_scan(node)
        else:
            assert attr_keys(node) == INFERENCE_ATTRS
            assert node["attrs"]["cells"] >= 1
            assert "children" not in node


def assert_exact_route(route: dict) -> None:
    assert attr_keys(route) == ROUTE_ATTRS
    assert names(route) == ["scan"]
    assert_scan(route["children"][0])


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """Run the six request kinds once; return their finished traces."""
    root = tmp_path_factory.mktemp("span-tree")
    server = start_server(root, {"acme": 2_000}, tracer=Tracer(ring_capacity=64))
    traces: dict[str, dict] = {}
    try:
        with VerdictClient(port=server.port, tenant="acme") as client:
            client.ask(
                "SELECT COUNT(*) FROM sales WHERE week >= 3",
                max_relative_error=0.0,
                request_id="tree-exact",
            )
            assert client.record(
                "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20"
            )
            traces["feedback"] = client.trace(client.last_request_id)
            client.record("SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 40")
            client.record(
                "SELECT region, AVG(revenue) FROM sales "
                "WHERE week >= 1 AND week <= 20 GROUP BY region"
            )
            client.train()
            learned_sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
            client.ask(learned_sql, max_relative_error=0.5, request_id="tree-learned")
            client.ask(learned_sql, max_relative_error=0.5, request_id="tree-cached")
            client.ask(
                "SELECT AVG(revenue) FROM sales WHERE week >= 6 AND week <= 26",
                max_relative_error=0.0001,
                request_id="tree-escalation",
            )
            client.ask(
                "SELECT region, AVG(revenue) FROM sales "
                "WHERE week >= 3 AND week <= 30 GROUP BY region",
                max_relative_error=0.5,
                record=False,
                request_id="tree-grouped",
            )
            for kind in ("exact", "learned", "cached", "escalation", "grouped"):
                traces[kind] = client.trace(f"tree-{kind}")
    finally:
        server.close()
    return traces


def test_exact_ask(session):
    trace = session["exact"]
    assert_front_door(trace)
    assert_plan(trace)
    assert trace["attrs"]["route"] == "exact"
    assert trace["attrs"]["error_bound"] == 0.0
    assert names(trace) == [
        "governance",
        "admission",
        "cache.lookup",
        "plan",
        "route.exact",
    ]
    assert child(trace, "cache.lookup")["attrs"]["hit"] is False
    assert_exact_route(child(trace, "route.exact"))


def test_learned_ask_records(session):
    trace = session["learned"]
    assert_front_door(trace)
    assert_plan(trace)
    assert trace["attrs"]["route"] == "learned"
    assert trace["attrs"]["budget_met"] is True
    assert names(trace) == [
        "governance",
        "admission",
        "cache.lookup",
        "plan",
        "route.learned",
        "record",
    ]
    assert_learned_route(child(trace, "route.learned"))
    record = child(trace, "record")
    assert record["attrs"] == {"recorded": True}
    assert "children" not in record


def test_cached_ask(session):
    trace = session["cached"]
    assert_front_door(trace)
    assert trace["attrs"]["route"] == "cached"
    assert names(trace) == ["governance", "admission", "cache.lookup"]
    assert child(trace, "cache.lookup")["attrs"]["hit"] is True


def test_escalation_skips_the_dominated_route(session):
    trace = session["escalation"]
    assert_front_door(trace)
    assert_plan(trace)
    assert trace["attrs"]["route"] == "exact"
    assert names(trace) == [
        "governance",
        "admission",
        "cache.lookup",
        "plan",
        "route.learned",
        "route.skip",
        "route.exact",
    ]
    assert_learned_route(child(trace, "route.learned"))
    skip = child(trace, "route.skip")
    assert attr_keys(skip) == {"route", "reason"}
    assert skip["attrs"]["route"] == "online_agg"
    assert "Theorem 1" in skip["attrs"]["reason"]
    assert skip["wall_s"] == 0.0 and skip["cpu_s"] == 0.0
    assert "children" not in skip
    assert_exact_route(child(trace, "route.exact"))


def test_grouped_learned_ask(session):
    trace = session["grouped"]
    assert_front_door(trace)
    assert_plan(trace)
    assert trace["attrs"]["route"] == "learned"
    assert names(trace) == [
        "governance",
        "admission",
        "cache.lookup",
        "plan",
        "route.learned",
    ]
    assert_learned_route(child(trace, "route.learned"))


def test_feedback_record_scans_under_the_root(session):
    trace = session["feedback"]
    assert trace["name"] == "POST /v1/feedback/record"
    assert trace["status"] == "ok"
    assert attr_keys(trace) == {"status"}
    assert names(trace) == ["admission", "scan"]
    assert attr_keys(child(trace, "admission")) == ADMISSION_ATTRS
    assert_scan(child(trace, "scan"))
