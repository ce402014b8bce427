"""Serving metrics: per-route counters and latency histograms.

The serving layer records, for every request, which route answered it
(cached / learned / online aggregation / exact), whether the budget was met,
and both the wall-clock and model-time latency.  Each number is declared
once in this object's :class:`~repro.obs.metrics.Registry` (the Prometheus
view) and read back by :meth:`ServiceMetrics.as_dict` (the JSON view
consumed by the experiment runner's ``--serve`` mode and the benchmarks).

Latencies are :class:`~repro.obs.metrics.LatencyHistogram` series: fixed
log-spaced buckets plus a bounded reservoir of raw samples per route, from
which p50/p99 are computed.

All methods are thread-safe: every instrument carries its own lock.
"""

from __future__ import annotations

from repro.db.scan import ScanCounters
from repro.obs.metrics import Registry


class ServiceMetrics:
    """Thread-safe per-route serving metrics.

    Besides the per-route counters and latency histograms, the snapshot
    includes the partitioned-scan accounting (partitions scanned vs skipped
    by zone-map pruning, :mod:`repro.db.scan`) of ``scan_counters``: the
    owning service passes the :class:`~repro.db.scan.ScanCounters` its
    executors record into, so the ``scan`` key attributes exactly *this
    service's* scans.
    """

    def __init__(self, scan_counters: ScanCounters | None = None):
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()
        scans = self.scan_counters.snapshot
        self.registry = registry = Registry()
        self.requests_total = registry.counter(
            "verdict_requests_total", "Requests served, by route.", ("route",)
        )
        self.budget_met = registry.counter(
            "verdict_budget_met_total",
            "Requests whose error/latency budget was met, by route.",
            ("route",),
        )
        self.fallbacks = registry.counter(
            "verdict_route_fallbacks_total",
            "Requests that fell back from a cheaper route, by final route.",
            ("route",),
        )
        self.model_seconds = registry.counter(
            "verdict_route_model_seconds_total",
            "Cumulative model-clock (IO cost model) seconds, by route.",
            ("route",),
        )
        self.wall = registry.histogram(
            "verdict_route_wall_seconds",
            "Wall-clock latency of served requests, by route.",
            ("route",),
        )
        self.events = registry.counter(
            "verdict_events_total",
            "Robustness events (breaker trips, deadline hits, flush errors).",
            ("event",),
        )
        registry.counter(
            "verdict_scan_partitions_total",
            "Partitions considered by this service's scans, by outcome.",
            ("outcome",),
            fn=lambda: {
                outcome: scans()[f"partitions_{outcome}"]
                for outcome in ("scanned", "pruned")
            },
        )
        registry.counter(
            "verdict_scan_rows_scanned_total",
            "Rows actually scanned (post zone-map pruning) by this service.",
            fn=lambda: scans()["rows_scanned"],
        )

    def record_event(self, name: str, count: int = 1) -> None:
        """Count one robustness event (deadline hit, breaker trip, ...).

        Event names are free-form dotted strings, e.g.
        ``deadline.exceeded``, ``deadline.degraded``,
        ``breaker.learned.open``, ``trainer.restart``, ``flush.error``,
        ``store.tail_recoveries``; a new failure path is counted without
        touching this module.
        """
        self.events.inc(name, by=count)

    def event_count(self, name: str) -> int:
        return self.events.value(name)

    def scan_snapshot(self) -> dict:
        """This service's partition/pruning counters (see class docstring)."""
        return self.scan_counters.snapshot()

    def observe(
        self,
        route: str,
        wall_seconds: float,
        model_seconds: float = 0.0,
        budget_met: bool = True,
        fallback: bool = False,
    ) -> None:
        """Record one served request.

        ``fallback`` marks requests where an earlier (cheaper) route was
        attempted but could not meet the budget, so this route's latency
        includes the abandoned attempt.
        """
        self.budget_met.inc(route, by=int(budget_met))
        self.fallbacks.inc(route, by=int(fallback))
        self.model_seconds.inc(route, by=model_seconds)
        self.wall.observe(wall_seconds, route)
        # Last: a reader that sees the request sees the rest of it.
        self.requests_total.inc(route)

    def requests(self, route: str | None = None) -> int:
        if route is not None:
            return self.requests_total.value(route)
        return self.requests_total.total()

    def as_dict(self) -> dict:
        """Snapshot of all counters and histograms as plain data."""
        requests = self.requests_total.series()
        routes = {
            route: {
                "requests": count,
                "budget_met": self.budget_met.value(route),
                "fallbacks": self.fallbacks.value(route),
                "model_seconds": self.model_seconds.value(route),
                "wall_latency": self.wall.histogram(route),
            }
            for (route,), count in requests.items()
        }
        return {
            "total_requests": sum(requests.values()),
            "routes": routes,
            "events": {name: count for (name,), count in self.events.series().items()},
            "scan": self.scan_snapshot(),
        }
