"""HTTP front door for the serving layer (stdlib-only, multi-tenant).

* :mod:`repro.serve.http.protocol` -- request schemas, strict validation,
  typed error mapping (400/404/409/429/503), answer serialisation;
* :mod:`repro.serve.http.admission` -- :class:`AdmissionController`, the
  bounded queue with shed-load backpressure in front of the engine;
* :mod:`repro.serve.http.tenants` -- :class:`TenantManager`, per-tenant
  catalog + synopsis store + answer cache + metrics, lazily loaded and
  LRU-evicted;
* :mod:`repro.serve.http.audit` -- per-session JSONL request log;
* :mod:`repro.serve.http.server` -- :class:`VerdictHTTPServer`, the
  ``ThreadingHTTPServer`` routing layer;
* :mod:`repro.serve.http.wire` -- the HTTP/1.1 head codec (limits, field
  rules, head-line loop) the server and the client both read heads with;
* ``python -m repro.serve.http`` -- the CLI entry point.

The matching blocking client lives in :mod:`repro.serve.client`.
"""

from repro.exports import lazy_exports

# The client imports ``wire`` alone and must not load the server, the
# tenants' services and the engine with it.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.http.admission": ("AdmissionController", "ShedLoad", "ShuttingDown"),
        "repro.serve.http.audit": ("AuditLog",),
        "repro.serve.http.protocol": (
            "ApiError",
            "answer_fingerprint",
            "answer_to_state",
            "map_exception",
        ),
        "repro.serve.http.server": ("VerdictHTTPServer",),
        "repro.serve.http.tenants": ("Tenant", "TenantManager"),
    },
)
