"""Unit tests for the metric registry and the Prometheus text renderer."""

from __future__ import annotations

import math
import re
import sys
import threading

import pytest

from repro.obs.metrics import Metric, Registry, render_prometheus

#: One exposition sample line: name{labels} value
SAMPLE_RE = re.compile(
    r"\A(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)\Z"
)


def parse_exposition(text: str) -> dict:
    """Minimal 0.0.4 parser: validates structure, returns {series: value}."""
    series: dict[str, float] = {}
    typed: dict[str, str] = {}
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram")
            assert name not in typed, f"duplicate TYPE for {name}"
            typed[name] = kind
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        base = re.sub(r"_(bucket|sum|count)$", "", match["name"])
        assert match["name"] in typed or base in typed, f"undeclared {match['name']}"
        series[f"{match['name']}{{{match['labels'] or ''}}}"] = float(match["value"])
    return series


def registry_with(kind: str, name: str, help: str, labels=(), samples=()) -> Registry:
    """A registry holding one metric, counted ``samples`` of ``(labels, value)``."""
    registry = Registry()
    metric = getattr(registry, kind)(name, help, labels)
    for values, value in samples:
        if kind == "histogram":
            metric.observe(value, *values)
        else:
            metric.inc(*values, by=value)
    return registry


def render(*registries: Registry) -> str:
    return render_prometheus([(registry, {}) for registry in registries])


class TestMetricFamily:
    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            Metric("summary", "x", "nope")

    def test_add_histogram_checks_bucket_arity(self):
        # A histogram sample names one value per declared label.
        metric = Registry().histogram("h", "help", ("op",))
        with pytest.raises(ValueError):
            metric.observe(0.5)
        with pytest.raises(ValueError):
            metric.observe(0.5, "scan", "extra")

    def test_add_histogram_on_counter_rejected(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.counter("c", "help").observe(0.5)
        with pytest.raises(ValueError):
            registry.histogram("h", "help").inc()
        with pytest.raises(ValueError):
            registry.counter("c", "again")  # declared once


class TestRenderer:
    def test_counter_and_gauge(self):
        registry = registry_with(
            "counter", "req_total", "Requests.", ("route",),
            [(("learned",), 3), (("exact",), 1)],
        )
        registry.gauge("active", "Now running.", fn=lambda: 2)
        series = parse_exposition(render(registry))
        assert series['req_total{route="learned"}'] == 3
        assert series['req_total{route="exact"}'] == 1
        assert series["active{}"] == 2

    def test_histogram_buckets_are_cumulative_with_inf(self):
        # 2 at or below 0.0001, 3 in (0.0032, 0.01], 1 above the last bound
        registry = registry_with(
            "histogram", "lat", "Latency.", ("op",),
            [(("scan",), value) for value in (0.0001, 0.00005, 0.005, 0.01, 0.008, 11.0)],
        )
        series = parse_exposition(render(registry))
        assert series['lat_bucket{le="0.0001",op="scan"}'] == 2
        assert series['lat_bucket{le="0.0032",op="scan"}'] == 2
        assert series['lat_bucket{le="0.01",op="scan"}'] == 5
        assert series['lat_bucket{le="10",op="scan"}'] == 5
        assert series['lat_bucket{le="+Inf",op="scan"}'] == 6
        assert math.isclose(series['lat_sum{op="scan"}'], 11.02315)
        assert series['lat_count{op="scan"}'] == 6

    def test_label_escaping(self):
        registry = Registry()
        registry.gauge(
            "weird", "Help with\nnewline.", ("q",), fn=lambda: {'say "hi"\\now': 1}
        )
        text = render(registry)
        assert '\\"hi\\"' in text
        assert "Help with\\nnewline." in text
        # escaped payload still one line per sample
        assert len(text.strip().splitlines()) == 3

    def test_labels_sorted_deterministically(self):
        one = registry_with("counter", "m", "h", ("b", "a"), [(("2", "1"), 1)])
        two = registry_with("counter", "m", "h", ("a", "b"), [(("1", "2"), 1)])
        assert render(one) == render(two)

    def test_float_and_int_formatting(self):
        registry = Registry()
        registry.gauge("v", "h", fn=lambda: 2.0)
        registry.gauge("w", "h", ("k",), fn=lambda: {"f": 2.5})
        text = render(registry)
        assert "v 2\n" in text
        assert "w{k=\"f\"} 2.5" in text

    def test_empty_is_empty(self):
        assert render_prometheus([]) == ""
        assert render(Registry()) == ""


class TestMergeFamilies:
    """Same-named metrics of several registries render as one family."""

    def test_merges_same_name_preserving_order(self):
        tenant_a = registry_with("counter", "req_total", "Requests.", (), [((), 1)])
        other = Registry()
        other.gauge("active", "Now.", fn=lambda: 4)
        tenant_b = registry_with("counter", "req_total", "Requests.", (), [((), 2)])
        text = render_prometheus(
            [(tenant_a, {"tenant": "a"}), (other, {}), (tenant_b, {"tenant": "b"})]
        )
        types = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]
        assert types == ["req_total", "active"]
        series = parse_exposition(text)
        assert series['req_total{tenant="a"}'] == 1
        assert series['req_total{tenant="b"}'] == 2

    def test_merge_leaves_inputs_usable(self):
        base = registry_with("counter", "x", "h", (), [((), 1)])
        second = registry_with("counter", "x", "h", (), [((), 2)])
        sources = [(base, {"n": "1"}), (second, {"n": "2"})]
        text = render_prometheus(sources)
        assert render_prometheus(sources) == text  # rendering mutates nothing
        assert base.metrics[0].series() == {(): 1}
        assert len(parse_exposition(text)) == 2

    def test_parser_rejects_duplicate_type_blocks(self):
        """The helper parser enforces what merging exists to fix."""
        one = registry_with("counter", "dup", "h", ("t",), [(("a",), 1)])
        two = registry_with("counter", "dup", "h", ("t",), [(("b",), 1)])
        with pytest.raises(AssertionError):
            parse_exposition(render(one) + render(two))
        parse_exposition(render(one, two))


class TestMetricThreads:
    def test_concurrent_counting_loses_nothing(self):
        registry = Registry()
        counter = registry.counter("c_total", "h", ("k",))
        histogram = registry.histogram("h_seconds", "h")
        workers, per_thread = 8, 2_000

        def work(key: str) -> None:
            for _ in range(per_thread):
                counter.inc(key)
                histogram.observe(0.001)

        threads = [
            threading.Thread(target=work, args=(str(index % 2),)) for index in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        half = workers // 2 * per_thread
        assert counter.series() == {("0",): half, ("1",): half}
        assert histogram.histogram()["count"] == workers * per_thread


class TestServiceMetricsFamilies:
    def test_service_metrics_render_parses(self):
        from repro.serve.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.observe("learned", 0.01, model_seconds=0.5, budget_met=True)
        metrics.observe("exact", 0.2, model_seconds=2.0, fallback=True)
        metrics.record_event("deadline.exceeded")
        series = parse_exposition(
            render_prometheus([(metrics.registry, {"tenant": "t"})])
        )
        assert series['verdict_requests_total{route="learned",tenant="t"}'] == 1
        assert series['verdict_route_fallbacks_total{route="exact",tenant="t"}'] == 1
        assert (
            series['verdict_events_total{event="deadline.exceeded",tenant="t"}'] == 1
        )
        assert math.isclose(
            series['verdict_route_wall_seconds_sum{route="exact",tenant="t"}'], 0.2
        )
        assert series['verdict_route_wall_seconds_count{route="exact",tenant="t"}'] == 1
