"""The metric registry and its Prometheus text exposition (format 0.0.4).

Every serving component owns one :class:`Registry` and declares each of
its counters, gauges and histograms there exactly once -- Prometheus name,
kind, help text and label names -- then counts into the returned
:class:`Metric`.  Its JSON view (``snapshot()`` / ``as_dict()``) reads the
same instruments, and :func:`render_prometheus` renders any number of
registries as one text exposition::

    # HELP verdict_requests_total Requests served, by route.
    # TYPE verdict_requests_total counter
    verdict_requests_total{route="learned",tenant="acme"} 42

A metric whose value lives in another object (a cache size, a breaker
state, a token bucket, a store counter) is declared with a callback
``fn`` that is read at scrape time.  It returns the value, or for a
labelled metric a mapping from label values to values; returning ``None``
leaves the family out of the exposition.

Histograms are :class:`LatencyHistogram` series (log buckets plus a
reservoir for quantiles) and render with cumulative ``le`` buckets ending
in ``+Inf``, plus ``_sum`` and ``_count``.

Each metric has its own lock, and it is a leaf: nothing else is acquired
while it is held, and callbacks run outside it.
"""

from __future__ import annotations

import math
import random
import threading
from bisect import bisect_left
from typing import Callable, Iterable

_KINDS = ("counter", "gauge", "histogram")

#: Histogram bucket upper bounds, in seconds (log-spaced, "+Inf" implied).
DEFAULT_BUCKETS = (
    0.0001,
    0.00032,
    0.001,
    0.0032,
    0.01,
    0.032,
    0.1,
    0.32,
    1.0,
    3.2,
    10.0,
)


class LatencyHistogram:
    """Log-bucketed latency histogram with an exact-quantile reservoir.

    Not thread-safe on its own: a histogram :class:`Metric` guards its
    series with the metric's lock.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS, reservoir_size: int = 8192):
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last bucket = +Inf
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self._reservoir: list[float] = []
        self._reservoir_size = reservoir_size
        self._random = random.Random(0)

    def observe(self, seconds: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(seconds)
        else:
            slot = self._random.randrange(self.count)
            if slot < self._reservoir_size:
                self._reservoir[slot] = seconds

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the observed latencies, 0.0 if empty.

        Nearest-rank selection: the smallest observation such that at least
        ``q * n`` of the samples are <= it (``ceil(q*n)``-th order
        statistic).
        """
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = math.ceil(q * len(ordered))
        return ordered[min(max(rank - 1, 0), len(ordered) - 1)]

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean_seconds,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
            "max_s": self.max_seconds,
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.buckets, self.bucket_counts)
            }
            | {"le_inf": self.bucket_counts[-1]},
        }


class Metric:
    """One declared family: a value (or histogram) per tuple of label values."""

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        labels: tuple[str, ...] = (),
        fn: Callable[[], object] | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self.fn = fn
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}
        if not self.labels and fn is None:
            # An unlabelled series exists from its declaration on.
            self._series[()] = LatencyHistogram() if kind == "histogram" else 0

    def _check(self, values: tuple, kinds: tuple[str, ...]) -> None:
        if self.fn is not None or self.kind not in kinds:
            source = " read from a callback" if self.fn is not None else ""
            needs = " or ".join(kinds)
            raise ValueError(f"{self.name} is a {self.kind}{source}, not a {needs} to count into")
        if len(values) != len(self.labels):
            raise ValueError(f"{self.name} takes labels {self.labels}, got {values}")

    def inc(self, *values: str, by: float = 1) -> None:
        """Add ``by`` to the series ``values`` (``by=0`` declares it at zero)."""
        self._check(values, ("counter", "gauge"))
        with self._lock:
            self._series[values] = self._series.get(values, 0) + by

    def set(self, *values: str, to: float) -> None:
        self._check(values, ("gauge",))
        with self._lock:
            self._series[values] = to

    def observe(self, seconds: float, *values: str) -> None:
        self._check(values, ("histogram",))
        with self._lock:
            histogram = self._series.get(values)
            if histogram is None:
                histogram = self._series[values] = LatencyHistogram()
            histogram.observe(seconds)

    def value(self, *values: str) -> float:
        """One counter or gauge series (0 when it was never counted)."""
        if self.fn is not None:
            return self.series().get(values, 0)
        with self._lock:
            return self._series.get(values, 0)

    def total(self) -> float:
        return sum(self.series().values())

    def histogram(self, *values: str) -> dict:
        """One histogram series as plain data (empty when never observed)."""
        with self._lock:
            return self._series.get(values, _EMPTY_HISTOGRAM).as_dict()

    def series(self) -> dict[tuple, object] | None:
        """Label values -> value, sorted; a histogram's value is its buckets."""
        if self.fn is not None:
            sampled = self.fn()
            if sampled is None or not self.labels:
                return sampled if sampled is None else {(): sampled}
            return dict(
                sorted(
                    (key if isinstance(key, tuple) else (key,), value)
                    for key, value in sampled.items()
                )
            )
        with self._lock:
            if self.kind != "histogram":
                return dict(sorted(self._series.items()))
            return {
                values: (
                    histogram.buckets,
                    tuple(histogram.bucket_counts),
                    histogram.total_seconds,
                    histogram.count,
                )
                for values, histogram in sorted(self._series.items())
            }


_EMPTY_HISTOGRAM = LatencyHistogram(reservoir_size=0)


class Registry:
    """The metrics one component declares, in declaration order."""

    def __init__(self) -> None:
        self.metrics: list[Metric] = []

    def _declare(self, *args, **kwargs) -> Metric:
        metric = Metric(*args, **kwargs)
        if any(existing.name == metric.name for existing in self.metrics):
            raise ValueError(f"metric {metric.name!r} is already declared")
        self.metrics.append(metric)
        return metric

    def counter(self, name: str, help: str, labels: tuple[str, ...] = (), fn=None) -> Metric:
        return self._declare("counter", name, help, labels, fn)

    def gauge(self, name: str, help: str, labels: tuple[str, ...] = (), fn=None) -> Metric:
        return self._declare("gauge", name, help, labels, fn)

    def histogram(self, name: str, help: str, labels: tuple[str, ...] = ()) -> Metric:
        return self._declare("histogram", name, help, labels)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _value(value) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(sources: Iterable[tuple[Registry, dict]]) -> str:
    """Render ``(registry, constant labels)`` pairs as one text exposition.

    Same-named metrics of several registries (one per tenant, told apart
    by a constant ``tenant`` label) merge under one HELP/TYPE block, in
    order of first appearance; the first declaration's kind and help win.
    """
    families: dict[str, tuple[Metric, list]] = {}
    for registry, constant in sources:
        for metric in registry.metrics:
            series = metric.series()
            if series is None:
                continue
            _, samples = families.setdefault(metric.name, (metric, []))
            for values, value in series.items():
                samples.append((constant | dict(zip(metric.labels, values)), value))
    lines: list[str] = []
    for name, (metric, samples) in families.items():
        lines.append(f"# HELP {name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if metric.kind != "histogram":
            for labels, value in samples:
                lines.append(f"{name}{_labels(labels)} {_value(value)}")
            continue
        for labels, (bounds, bucket_counts, total_sum, count) in samples:
            cumulative = 0
            for bound, bucket in zip(bounds, bucket_counts):
                cumulative += bucket
                lines.append(
                    f"{name}_bucket{_labels(labels | {'le': f'{bound:g}'})} {cumulative}"
                )
            lines.append(f"{name}_bucket{_labels(labels | {'le': '+Inf'})} {count}")
            lines.append(f"{name}_sum{_labels(labels)} {_value(total_sum)}")
            lines.append(f"{name}_count{_labels(labels)} {count}")
    return "\n".join(lines) + "\n" if lines else ""
