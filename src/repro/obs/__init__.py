"""Observability: request tracing, span context, unified metrics exposition.

Two halves, both stdlib-only:

* :mod:`repro.obs.trace` -- per-request span trees.  A request id is minted
  at the front door (or accepted from the caller), made ambient via
  ``contextvars``, and every layer underneath (admission, planner, route
  attempts, partition scans, GP inference, cache lookups) opens spans
  against it without any plumbing through call signatures.  Finished traces
  land in a bounded in-memory ring, an optional JSONL trace log, and -- when
  they exceed a threshold -- a slow-query log.
* :mod:`repro.obs.metrics` -- the metric registry: each component
  declares its counters, gauges and histograms (with labels) once and
  counts into them; its JSON metrics dict and the
  ``/v1/metrics?format=prometheus`` text rendered from the registries are
  two views over the same instruments.

The disabled hot path is deliberately cheap: with no active trace,
``span(...)`` costs one contextvar read and allocates nothing (mirroring the
one-global-read discipline of :mod:`repro.faults`).
"""

from repro.obs.metrics import LatencyHistogram, Metric, Registry, render_prometheus
from repro.obs.trace import (
    Span,
    Tracer,
    current_request_id,
    current_span,
    current_trace,
    event,
    mint_request_id,
    set_attrs,
    span,
    valid_request_id,
)

__all__ = [
    "LatencyHistogram",
    "Metric",
    "Registry",
    "Span",
    "Tracer",
    "current_request_id",
    "current_span",
    "current_trace",
    "event",
    "mint_request_id",
    "render_prometheus",
    "set_attrs",
    "span",
    "valid_request_id",
]
