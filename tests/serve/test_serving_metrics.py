"""Metrics tests: histogram buckets, quantiles, and thread safety."""

from __future__ import annotations

import threading

from repro.obs.metrics import LatencyHistogram
from repro.serve.metrics import ServiceMetrics


class TestLatencyHistogram:
    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean_seconds == 0.0

    def test_quantiles_exact_below_reservoir_capacity(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):
            histogram.observe(value / 1000.0)
        assert histogram.count == 100
        # Nearest-rank: p50 of 100 ordered values is the 50th (0.050), not
        # the 51st -- the old implementation rounded the rank up by one.
        assert abs(histogram.quantile(0.5) - 0.050) < 1e-12
        assert abs(histogram.quantile(0.99) - 0.099) < 1e-12
        assert abs(histogram.quantile(1.0) - 0.1) < 1e-12
        assert histogram.max_seconds == 0.1

    def test_quantile_nearest_rank_definition(self):
        # Direct check of the ceil-based nearest-rank rule on a small set:
        # for n=4 values, q=0.5 -> rank ceil(2)=2 -> the 2nd smallest.
        histogram = LatencyHistogram()
        for value in (0.4, 0.1, 0.3, 0.2):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.1
        assert histogram.quantile(0.25) == 0.1
        assert histogram.quantile(0.5) == 0.2
        assert histogram.quantile(0.75) == 0.3
        assert histogram.quantile(0.51) == 0.3
        assert histogram.quantile(1.0) == 0.4

    def test_buckets_partition_observations(self):
        histogram = LatencyHistogram()
        samples = [0.00005, 0.0005, 0.005, 0.05, 0.5, 5.0, 50.0]
        for value in samples:
            histogram.observe(value)
        state = histogram.as_dict()
        assert sum(state["buckets"].values()) == len(samples)
        assert state["buckets"]["le_inf"] == 1  # the 50 s outlier

    def test_reservoir_overflow_keeps_quantiles_sane(self):
        histogram = LatencyHistogram(reservoir_size=64)
        for value in range(10_000):
            histogram.observe(0.001 if value % 2 else 0.1)
        p50 = histogram.quantile(0.5)
        assert p50 in (0.001, 0.1)
        assert histogram.count == 10_000


class TestServiceMetrics:
    def test_observe_accumulates_per_route(self):
        metrics = ServiceMetrics()
        metrics.observe("learned", 0.01, model_seconds=0.5, budget_met=True)
        metrics.observe("learned", 0.02, model_seconds=0.7, budget_met=False)
        metrics.observe("exact", 0.10, model_seconds=2.0, budget_met=True, fallback=True)
        state = metrics.as_dict()
        assert state["total_requests"] == 3
        learned = state["routes"]["learned"]
        assert learned["requests"] == 2
        assert learned["budget_met"] == 1
        assert learned["model_seconds"] == 1.2
        assert state["routes"]["exact"]["fallbacks"] == 1
        assert metrics.requests("learned") == 2
        assert metrics.requests() == 3
        assert metrics.requests("missing") == 0

    def test_as_dict_is_plain_data(self):
        import json

        metrics = ServiceMetrics()
        metrics.observe("cached", 0.00001)
        json.dumps(metrics.as_dict())  # must not raise

    def test_concurrent_observations_are_not_lost(self):
        metrics = ServiceMetrics()
        per_thread = 2_000

        def worker(route: str):
            for _ in range(per_thread):
                metrics.observe(route, 0.001)

        threads = [
            threading.Thread(target=worker, args=(route,))
            for route in ("cached", "cached", "learned", "exact")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        state = metrics.as_dict()
        assert state["total_requests"] == 4 * per_thread
        assert state["routes"]["cached"]["requests"] == 2 * per_thread
        assert state["routes"]["cached"]["wall_latency"]["count"] == 2 * per_thread
