"""Unit tests for the span/tracer core: nesting, ring, logs, hot path."""

from __future__ import annotations

import contextvars
import json
import threading

import pytest

from repro.obs.trace import (
    Tracer,
    current_request_id,
    current_span,
    current_trace,
    event,
    mint_request_id,
    read_jsonl,
    set_attrs,
    span,
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
        with span("anything", key="value") as live:
            assert live is None
        # event / set_attrs are silent no-ops too
        event("nothing")
        set_attrs(foo=1)
        assert current_span() is None
        assert current_trace() is None
        assert current_request_id() is None


class TestSpanTree:
    def test_nesting_attrs_and_timings(self):
        tracer = Tracer(ring_capacity=4)
        with tracer.request("req1", name="request") as root:
            assert current_trace() is root
            assert current_request_id() == "req1"
            with span("outer", a=1) as outer:
                assert current_span() is outer
                set_attrs(b=2)
                with span("inner") as inner:
                    assert current_span() is inner
                event("tick", n=3)
            assert current_span() is root
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
        with tracer.request("unbounded"):
            set_attrs(error_bound=float("inf"), spread=float("nan"), rows=3)
        data = tracer.get("unbounded")
        assert data["attrs"] == {"error_bound": None, "spread": None, "rows": 3}
        json.dumps(data, allow_nan=False)

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer(ring_capacity=4)
        with pytest.raises(ValueError):
            with tracer.request("boom"):
                with span("failing"):
                    raise ValueError("kaput")
        data = tracer.get("boom")
        assert data["status"] == "error"
        assert "kaput" in data["error"]
        child = data["children"][0]
        assert child["status"] == "error"
        assert child["error"].startswith("ValueError")

    def test_context_isolation_across_threads(self):
        """A trace opened in one context is invisible to a bare thread."""
        tracer = Tracer(ring_capacity=4)
        seen_in_thread = []

        with tracer.request("iso"):
            thread = threading.Thread(
                target=lambda: seen_in_thread.append(current_trace())
            )
            thread.start()
            thread.join()
            # ... but copy_context carries it over explicitly.
            context = contextvars.copy_context()
            carried = []
            thread2 = threading.Thread(
                target=lambda: carried.append(context.run(current_request_id))
            )
            thread2.start()
            thread2.join()
        assert seen_in_thread == [None]
        assert carried == ["iso"]


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
        with tracer.request("a"):
            with span("child"):
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
