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

from repro.serve.http.admission import AdmissionController, ShedLoad, ShuttingDown
from repro.serve.http.audit import AuditLog
from repro.serve.http.protocol import (
    ApiError,
    answer_fingerprint,
    answer_to_state,
    map_exception,
)
from repro.serve.http.server import VerdictHTTPServer
from repro.serve.http.tenants import Tenant, TenantManager

__all__ = [
    "AdmissionController",
    "ApiError",
    "AuditLog",
    "ShedLoad",
    "ShuttingDown",
    "Tenant",
    "TenantManager",
    "VerdictHTTPServer",
    "answer_fingerprint",
    "answer_to_state",
    "map_exception",
]
