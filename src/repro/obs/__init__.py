"""Observability: request tracing, span context, unified metrics exposition.

Two halves, both stdlib-only:

* :mod:`repro.obs.trace` -- per-request span trees.  A request id is minted
  at the front door (or accepted from the caller) with a root span, which
  is passed down -- on its own, or inside the request's
  :class:`repro.deadline.Limits` -- so every layer underneath (admission,
  planner, route attempts, partition scans, GP inference, cache lookups)
  opens its spans under the span it was handed.  Finished traces land in a
  bounded in-memory ring, an optional JSONL trace log, and -- when they
  exceed a threshold -- a slow-query log.
* :mod:`repro.obs.metrics` -- the metric registry: each component
  declares its counters, gauges and histograms (with labels) once and
  counts into them; its JSON metrics dict and the
  ``/v1/metrics?format=prometheus`` text rendered from the registries are
  two views over the same instruments.

The disabled hot path is deliberately cheap: an untraced request's span is
``None``, and ``child(None, ...)`` costs one ``None`` test and opens nothing
(mirroring the one-global-read discipline of :mod:`repro.faults`).
"""

from repro.obs.metrics import LatencyHistogram, Metric, Registry, render_prometheus
from repro.obs.trace import (
    Span,
    Tracer,
    child,
    event,
    mint_request_id,
    set_attrs,
    valid_request_id,
)

__all__ = [
    "LatencyHistogram",
    "Metric",
    "Registry",
    "Span",
    "Tracer",
    "child",
    "event",
    "mint_request_id",
    "render_prometheus",
    "set_attrs",
    "valid_request_id",
]
