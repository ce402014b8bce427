"""Unit tests for the span/tracer core: nesting, ring, logs, hot path."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (
    Tracer,
    child,
    event,
    mint_request_id,
    read_jsonl,
    set_attrs,
    valid_request_id,
)


class TestRequestIds:
    def test_minted_ids_are_valid_and_unique(self):
        ids = {mint_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_request_id(i) for i in ids)

    @pytest.mark.parametrize(
        "candidate,ok",
        [
            ("abc123", True),
            ("a" * 64, True),
            ("a-b_c.d", True),
            ("", False),
            ("a" * 65, False),
            ("-leading-dash", False),
            ("has space", False),
            ("semi;colon", False),
            ("new\nline", False),
        ],
    )
    def test_validation(self, candidate, ok):
        assert valid_request_id(candidate) is ok

    def test_tracer_adopts_valid_id_and_mints_otherwise(self):
        tracer = Tracer(ring_capacity=4)
        with tracer.request("my-id-1") as root:
            assert root.request_id == "my-id-1"
        with tracer.request("bad id!") as root:
            assert root.request_id != "bad id!"
            assert valid_request_id(root.request_id)


class TestDisabledHotPath:
    def test_span_without_trace_is_none(self):
        with child(None, "anything", key="value") as live:
            assert live is None
            with child(live, "nested") as nested:
                assert nested is None
        # event / set_attrs are silent no-ops too
        event(None, "nothing")
        set_attrs(None, foo=1)

    def test_exception_propagates_untraced(self):
        with pytest.raises(ValueError):
            with child(None, "failing"):
                raise ValueError("kaput")


class TestSpanTree:
    def test_nesting_attrs_and_timings(self):
        tracer = Tracer(ring_capacity=4)
        with tracer.request("req1", name="request") as root:
            assert root.request_id == "req1"
            with child(root, "outer", a=1) as outer:
                set_attrs(outer, b=2)
                with child(outer, "inner") as inner:
                    assert inner is not None
                event(outer, "tick", n=3)
            assert root.children == [outer]
            assert outer.children[0] is inner
        data = tracer.get("req1")
        assert data["name"] == "request"
        assert data["request_id"] == "req1"
        assert data["status"] == "ok"
        assert data["wall_s"] >= 0
        (outer_d,) = data["children"]
        assert outer_d["name"] == "outer"
        assert outer_d["attrs"] == {"a": 1, "b": 2}
        inner_d, tick = outer_d["children"]
        assert inner_d["name"] == "inner"
        assert tick == {
            "name": "tick",
            "ts": tick["ts"],
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "status": "ok",
            "attrs": {"n": 3},
        }

    def test_non_finite_attrs_render_as_null(self):
        tracer = Tracer(ring_capacity=4)
        with tracer.request("unbounded") as root:
            set_attrs(root, error_bound=float("inf"), spread=float("nan"), rows=3)
        data = tracer.get("unbounded")
        assert data["attrs"] == {"error_bound": None, "spread": None, "rows": 3}
        json.dumps(data, allow_nan=False)

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer(ring_capacity=4)
        with pytest.raises(ValueError):
            with tracer.request("boom") as root:
                with child(root, "failing"):
                    raise ValueError("kaput")
        data = tracer.get("boom")
        assert data["status"] == "error"
        assert "kaput" in data["error"]
        failing = data["children"][0]
        assert failing["status"] == "error"
        assert failing["error"].startswith("ValueError")


class TestTracerStorage:
    def test_ring_evicts_oldest_and_counts_dropped(self):
        tracer = Tracer(ring_capacity=2)
        for index in range(4):
            with tracer.request(f"r{index}"):
                pass
        assert tracer.get("r0") is None
        assert tracer.get("r1") is None
        assert tracer.get("r3")["request_id"] == "r3"
        stats = tracer.stats()
        assert stats == {
            "finished": 4,
            "stored": 2,
            "dropped": 2,
            "slow_queries": 0,
            "ring_capacity": 2,
            "slow_threshold_s": None,
        }

    def test_jsonl_log_one_line_per_trace(self, tmp_path):
        log = tmp_path / "deep" / "trace.jsonl"
        tracer = Tracer(ring_capacity=4, log_path=log)
        with tracer.request("a") as root:
            with child(root, "child"):
                pass
        with tracer.request("b"):
            pass
        tracer.close()
        lines = list(read_jsonl(log))
        assert [line["request_id"] for line in lines] == ["a", "b"]
        assert lines[0]["children"][0]["name"] == "child"
        # every line is independently parsable JSON
        raw = log.read_text().strip().splitlines()
        assert all(json.loads(line) for line in raw)

    def test_slow_log_threshold(self, tmp_path):
        slow = tmp_path / "slow.jsonl"
        tracer = Tracer(
            ring_capacity=4, slow_log_path=slow, slow_threshold_s=0.0
        )
        with tracer.request("slowpoke"):
            pass
        tracer.close()
        assert tracer.stats()["slow_queries"] == 1
        (entry,) = list(read_jsonl(slow))
        assert entry["request_id"] == "slowpoke"

    def test_fast_requests_skip_slow_log(self, tmp_path):
        slow = tmp_path / "slow.jsonl"
        tracer = Tracer(
            ring_capacity=4, slow_log_path=slow, slow_threshold_s=3600.0
        )
        with tracer.request("quick"):
            pass
        tracer.close()
        assert tracer.stats()["slow_queries"] == 0
        assert not list(read_jsonl(slow))
