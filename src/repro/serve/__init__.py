"""The serving layer: concurrent query serving with persistent learned state.

This package turns the reproduction from a library answering one query at a
time into a long-running service (the deployment mode of the reference
VerdictDB implementation):

* :mod:`repro.serve.store` -- :class:`SynopsisStore`, durable snapshots plus
  an incremental delta log of the engine's learned state, so a restarted
  service resumes exactly as smart as it stopped;
* :mod:`repro.serve.planner` -- :class:`QueryPlanner` and
  :class:`ServiceBudget`, routing each request to the cheapest engine able
  to meet its error/latency budget (cached -> learned -> online aggregation
  -> exact);
* :mod:`repro.serve.service` -- :class:`VerdictService`, the thread-safe
  front door: per-fact-table reader/writer locks, versioned answer cache,
  graceful shutdown;
* :mod:`repro.serve.metrics` -- :class:`ServiceMetrics`, per-route counters
  and latency histograms;
* :mod:`repro.serve.http` -- the multi-tenant HTTP/JSON front door
  (stdlib ``ThreadingHTTPServer``): ask/feedback/metrics/admin endpoints,
  bounded admission queue with shed-load backpressure, per-tenant state,
  per-session JSONL audit log (run it with ``python -m repro.serve.http``);
* :mod:`repro.serve.client` -- :class:`VerdictClient`, the thin blocking
  HTTP client with retry-on-429 exponential backoff.
"""

from repro.exports import lazy_exports

# ``import repro.serve.client`` must not load the service, and with it the
# engine, NumPy and SciPy.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.planner": ("QueryPlanner", "Route", "RouteDecision", "ServiceBudget"),
        "repro.serve.service": ("ReadWriteLock", "ServedAnswer", "ServedRow", "VerdictService"),
        "repro.serve.metrics": ("ServiceMetrics",),
        "repro.serve.store": ("SynopsisStore",),
        "repro.serve.client": ("VerdictClient",),
    },
)
