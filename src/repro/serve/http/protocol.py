"""Wire protocol for the HTTP front door: schemas, validation, error mapping.

Every request body is a JSON object validated *strictly* against a small
declarative schema before any engine code runs: missing fields, wrong types,
and unknown fields are all rejected with a typed 400 so malformed traffic
never reaches a tenant's service.  Failures anywhere in the stack are mapped
to one :class:`ApiError` with a stable machine-readable ``code``:

========  ======================  ============================================
status    code                    meaning
========  ======================  ============================================
400       ``bad_request``         malformed JSON / schema violation / malformed
                                  request line or HTTP version
400       ``invalid_sql``         the SQL text failed to parse
400       ``bad_rows``            append rows do not match the table schema
404       ``unknown_tenant``      tenant was never created
404       ``unknown_table``       SQL or append references an unknown table
404       ``unknown_route``       no such endpoint
409       ``tenant_exists``       tenant create with an existing name
409       ``epoch_fenced``        the write/fence carries a stale or divergent
                                  fencing epoch (a deposed leader's late
                                  write); hard error, never retried
409       ``snapshot_required``   a replication pull's ``from`` predates the
                                  leader's delta log; follower must bootstrap
                                  from ``/v1/replication/snapshot``
409       ``replication_gap``     shipped records do not chain onto the
                                  follower's applied state
414       ``uri_too_long``        the request line exceeds 65 536 bytes
431       ``headers_too_large``   a header line exceeds 65 536 bytes, or the
                                  head has more than 100 lines
429       ``shed_load``           admission queue full / queue wait timed out /
                                  a tenant quota or concurrency cap was hit
                                  (the body's ``quota`` field carries the
                                  tenant's remaining tokens and refill wait)
499       ``cancelled``           the request was cancelled mid-flight
                                  (``POST /v1/cancel`` or client disconnect);
                                  nothing was cached or recorded
503       ``shutting_down``       the server is draining
503       ``read_only_follower``  a mutating request reached a follower; the
                                  ``leader`` field in the error body names
                                  the endpoint to retry against
503       ``replication_timeout`` sync-ack mode: the write is durable locally
                                  but no follower confirmed it in time
504       ``deadline_exceeded``   the request's deadline expired with nothing
                                  to return (partial estimates come back 200,
                                  flagged ``degraded``)
501       ``not_implemented``     a verb other than GET / POST
505       ``unsupported_version`` the request line says HTTP/2 or later
500       ``internal``            anything else
========  ======================  ============================================

Responses are JSON too.  :func:`answer_to_state` renders a
:class:`~repro.serve.service.ServedAnswer` as plain data, and
:func:`answer_fingerprint` canonicalises the *deterministic* subset of that
state (everything except wall-clock timings and cache provenance) -- two
answers computed over byte-identical learned state produce byte-identical
fingerprints, which is what the kill/restart fault tests assert over the
wire.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.serve.planner import ServiceBudget
from repro.serve.service import ServedAnswer

#: Tenant names are path-safe by construction (they become directory names).
TENANT_NAME_RE = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Largest accepted request body, in bytes (a generous cap for appends).
MAX_BODY_BYTES = 16 * 1024 * 1024


class ApiError(ReproError):
    """One typed HTTP failure: status code, machine code, human message.

    ``retry_after_s``, when set, becomes the response's ``Retry-After``
    header -- admission control fills it with its queue-drain backoff hint
    on 429s.  ``extra`` fields are merged into the error body (e.g. the
    ``leader`` hint on ``read_only_follower``).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: float | None = None,
        extra: dict | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        self.extra = dict(extra or {})

    def body(self) -> dict:
        return {"error": {"code": self.code, "message": self.message, **self.extra}}


def bad_request(message: str, code: str = "bad_request") -> ApiError:
    return ApiError(400, code, message)


def unknown_tenant(name: str) -> ApiError:
    return ApiError(404, "unknown_tenant", f"unknown tenant {name!r}")


def unknown_route(method: str, path: str) -> ApiError:
    return ApiError(404, "unknown_route", f"no route for {method} {path}")


def uri_too_long() -> ApiError:
    return ApiError(414, "uri_too_long", "request line too long")


def headers_too_large(message: str) -> ApiError:
    return ApiError(431, "headers_too_large", message)


def not_implemented(method: str) -> ApiError:
    return ApiError(501, "not_implemented", f"unsupported method {method!r}")


def unsupported_version(number: tuple[int, int]) -> ApiError:
    major, minor = number
    return ApiError(505, "unsupported_version", f"unsupported HTTP version {major}.{minor}")


def tenant_exists(name: str) -> ApiError:
    return ApiError(409, "tenant_exists", f"tenant {name!r} already exists")


def shed_load(
    message: str,
    retry_after_s: float | None = None,
    quota: dict | None = None,
) -> ApiError:
    # ``quota`` (set on per-tenant governor sheds) rides into the error
    # body: remaining tokens, refill wait, and concurrency state so the
    # client can back off for exactly as long as the bucket needs.
    extra = {"quota": quota} if quota is not None else None
    return ApiError(429, "shed_load", message, retry_after_s=retry_after_s, extra=extra)


def cancelled(message: str, reason: str = "requested") -> ApiError:
    # 499 (client closed request): non-standard but the de-facto code for
    # "the client is no longer waiting"; never retried by the client.
    return ApiError(499, "cancelled", message, extra={"reason": reason})


def shutting_down(message: str = "server is shutting down") -> ApiError:
    return ApiError(503, "shutting_down", message)


def deadline_exceeded(message: str) -> ApiError:
    return ApiError(504, "deadline_exceeded", message)


def read_only_follower(message: str, leader: str | None = None) -> ApiError:
    # Deliberately no Retry-After: retrying against the same follower can
    # never succeed.  The client follows the ``leader`` hint instead.
    extra = {"leader": leader} if leader else {}
    return ApiError(503, "read_only_follower", message, extra=extra)


def epoch_fenced(
    message: str,
    local: tuple[int, str] | None = None,
    remote: tuple[int, str] | None = None,
) -> ApiError:
    extra: dict = {}
    if local is not None:
        extra["local_epoch"], extra["local_lineage"] = local
    if remote is not None:
        extra["remote_epoch"], extra["remote_lineage"] = remote
    return ApiError(409, "epoch_fenced", message, extra=extra)


def snapshot_required(tenant: str, from_seq: int, snapshot_seq: int) -> ApiError:
    return ApiError(
        409,
        "snapshot_required",
        f"tenant {tenant!r}: pull from seq {from_seq} predates the leader's "
        f"delta log (snapshot is at seq {snapshot_seq}); bootstrap from "
        "/v1/replication/snapshot",
        extra={"snapshot_seq": snapshot_seq},
    )


def replication_timeout(message: str) -> ApiError:
    # No Retry-After either: the write *is* durable on the leader; blindly
    # retrying it would double-apply.  The caller decides what "applied
    # locally, unconfirmed remotely" means for it.
    return ApiError(503, "replication_timeout", message)


# --------------------------------------------------------------------------- #
# Strict request validation
# --------------------------------------------------------------------------- #


def _validate(payload: object, fields: dict[str, tuple]) -> dict:
    """Check ``payload`` against ``{name: (types, required)}`` strictly.

    Returns the validated dict.  Raises :class:`ApiError` (400) on a
    non-object payload, a missing required field, a wrong type, or any
    field not named in the schema.
    """
    if not isinstance(payload, dict):
        raise bad_request("request body must be a JSON object")
    unknown = set(payload) - set(fields)
    if unknown:
        raise bad_request(f"unknown fields {sorted(unknown)}")
    out: dict = {}
    for name, (types, required) in fields.items():
        if name not in payload or payload[name] is None:
            if required:
                raise bad_request(f"missing required field {name!r}")
            out[name] = None
            continue
        value = payload[name]
        if not isinstance(value, types) or isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)
        ):
            raise bad_request(
                f"field {name!r} has wrong type {type(value).__name__}"
            )
        out[name] = value
    return out


def _validate_tenant_name(name: str) -> str:
    if not TENANT_NAME_RE.match(name):
        raise bad_request(
            f"invalid tenant name {name!r} (want {TENANT_NAME_RE.pattern})"
        )
    return name


@dataclass(frozen=True)
class AskRequest:
    tenant: str
    sql: str
    budget: ServiceBudget | None
    record: bool | None
    explain: bool = False
    trace: bool = False


def parse_ask(payload: object) -> AskRequest:
    fields = _validate(
        payload,
        {
            "tenant": (str, True),
            "sql": (str, True),
            "max_relative_error": ((int, float), False),
            "max_latency_s": ((int, float), False),
            "deadline_s": ((int, float), False),
            "record": (bool, False),
            "explain": (bool, False),
            "trace": (bool, False),
        },
    )
    _validate_tenant_name(fields["tenant"])
    if not fields["sql"].strip():
        raise bad_request("field 'sql' must be non-empty")
    budget = None
    if any(
        fields[name] is not None
        for name in ("max_relative_error", "max_latency_s", "deadline_s")
    ):
        try:
            budget = ServiceBudget(
                max_relative_error=fields["max_relative_error"],
                max_latency_s=fields["max_latency_s"],
                deadline_s=fields["deadline_s"],
            )
        except ReproError as error:
            raise bad_request(str(error)) from error
    return AskRequest(
        tenant=fields["tenant"],
        sql=fields["sql"],
        budget=budget,
        record=fields["record"],
        explain=bool(fields["explain"]),
        trace=bool(fields["trace"]),
    )


@dataclass(frozen=True)
class AppendRequest:
    tenant: str
    table: str
    rows: dict[str, list]
    adjust: bool


def parse_append(payload: object) -> AppendRequest:
    fields = _validate(
        payload,
        {
            "tenant": (str, True),
            "table": (str, True),
            "rows": (dict, True),
            "adjust": (bool, False),
        },
    )
    _validate_tenant_name(fields["tenant"])
    rows = fields["rows"]
    if not rows:
        raise bad_request("field 'rows' must name at least one column", "bad_rows")
    for column, values in rows.items():
        if not isinstance(column, str) or not isinstance(values, list):
            raise bad_request(
                "field 'rows' must map column names to value lists", "bad_rows"
            )
    return AppendRequest(
        tenant=fields["tenant"],
        table=fields["table"],
        rows=rows,
        adjust=True if fields["adjust"] is None else fields["adjust"],
    )


@dataclass(frozen=True)
class RecordRequest:
    tenant: str
    sql: str


def parse_record(payload: object) -> RecordRequest:
    fields = _validate(payload, {"tenant": (str, True), "sql": (str, True)})
    _validate_tenant_name(fields["tenant"])
    if not fields["sql"].strip():
        raise bad_request("field 'sql' must be non-empty")
    return RecordRequest(tenant=fields["tenant"], sql=fields["sql"])


@dataclass(frozen=True)
class TrainRequest:
    tenant: str
    learn: bool | None
    wait: bool


def parse_train(payload: object) -> TrainRequest:
    fields = _validate(
        payload,
        {"tenant": (str, True), "learn": (bool, False), "wait": (bool, False)},
    )
    _validate_tenant_name(fields["tenant"])
    return TrainRequest(
        tenant=fields["tenant"],
        learn=fields["learn"],
        wait=True if fields["wait"] is None else fields["wait"],
    )


@dataclass(frozen=True)
class TenantRequest:
    tenant: str


def parse_tenant_only(payload: object) -> TenantRequest:
    fields = _validate(payload, {"tenant": (str, True)})
    _validate_tenant_name(fields["tenant"])
    return TenantRequest(tenant=fields["tenant"])


@dataclass(frozen=True)
class FenceRequest:
    epoch: int
    lineage: str


def parse_fence(payload: object) -> FenceRequest:
    fields = _validate(payload, {"epoch": (int, True), "lineage": (str, True)})
    if fields["epoch"] < 1:
        raise bad_request("field 'epoch' must be a positive integer")
    if not fields["lineage"]:
        raise bad_request("field 'lineage' must be non-empty")
    return FenceRequest(epoch=fields["epoch"], lineage=fields["lineage"])


def parse_promote(payload: object) -> None:
    """``admin/promote`` takes no arguments; the body must be ``{}`` (or absent)."""
    if payload is None:
        return None
    _validate(payload, {})
    return None


# --------------------------------------------------------------------------- #
# Answer serialisation
# --------------------------------------------------------------------------- #


def _plain(value):
    """Convert NumPy scalars to native Python types for JSON."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def answer_to_state(answer: ServedAnswer) -> dict:
    """Render a served answer as plain JSON-serialisable data."""
    return {
        "sql": answer.sql,
        "route": answer.route.value,
        "rows": [
            {
                "group": [_plain(value) for value in row.group_values],
                "values": {name: _plain(v) for name, v in row.values.items()},
                "errors": {name: _plain(v) for name, v in row.errors.items()},
            }
            for row in answer.rows
        ],
        "relative_error_bound": float(answer.relative_error_bound),
        "model_seconds": float(answer.model_seconds),
        "wall_seconds": float(answer.wall_seconds),
        "supported": answer.supported,
        "budget_met": answer.budget_met,
        "from_cache": answer.from_cache,
        "recorded": answer.recorded,
        "batches_processed": answer.batches_processed,
        "degraded": answer.degraded,
        "degraded_reason": answer.degraded_reason,
    }


#: The non-deterministic answer fields: wall-clock timing and provenance
#: that legitimately differ between a cold and a warm (cached) service.
#: ``model_seconds`` is nondeterministic too: on the learned route it adds
#: the *measured* inference overhead to the cost model's deterministic IO
#: estimate.
#: ``degraded``/``degraded_reason`` join the list: whether a wall-clock
#: deadline cut refinement short depends on real time, never on the learned
#: state being fingerprinted.
NONDETERMINISTIC_FIELDS = (
    "wall_seconds",
    "model_seconds",
    "from_cache",
    "route",
    "recorded",
    "degraded",
    "degraded_reason",
)


def answer_fingerprint(state: dict) -> bytes:
    """Canonical bytes of the deterministic part of an answer state.

    Two services holding byte-identical learned state produce identical
    fingerprints for the same request, regardless of wall-clock timing,
    cache warmth, or whether the answer was recorded -- the kill/restart
    fault tests compare exactly this.
    """
    deterministic = {
        key: value
        for key, value in state.items()
        if key not in NONDETERMINISTIC_FIELDS
    }
    return json.dumps(deterministic, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------------- #
# Exception mapping
# --------------------------------------------------------------------------- #


def map_exception(error: Exception) -> ApiError:
    """Map any engine/service failure onto one typed :class:`ApiError`."""
    # Imported here to keep the protocol module import-light for clients.
    from repro.errors import (
        CatalogError,
        DeadlineExceeded,
        EpochFencedError,
        QueryCancelled,
        ReadOnlyFollowerError,
        ReplicationGapError,
        ServiceError,
        SQLSyntaxError,
        TableError,
        UnsupportedQueryError,
    )
    from repro.serve.http.admission import ShedLoad, ShuttingDown

    if isinstance(error, ApiError):
        return error
    if isinstance(error, DeadlineExceeded):
        return deadline_exceeded(str(error))
    if isinstance(error, QueryCancelled):
        return cancelled(str(error), reason=error.reason)
    if isinstance(error, EpochFencedError):
        return epoch_fenced(str(error), local=error.local, remote=error.remote)
    if isinstance(error, ReadOnlyFollowerError):
        return read_only_follower(str(error), leader=error.leader)
    if isinstance(error, ReplicationGapError):
        return ApiError(409, "replication_gap", str(error))
    if isinstance(error, ShedLoad):
        return shed_load(
            str(error),
            getattr(error, "retry_after_s", None),
            quota=getattr(error, "quota", None),
        )
    if isinstance(error, ShuttingDown):
        return shutting_down(str(error))
    if isinstance(error, SQLSyntaxError):
        return bad_request(f"SQL failed to parse: {error}", "invalid_sql")
    if isinstance(error, UnsupportedQueryError):
        # Unsupported-but-parsable queries are normally still served (the
        # online-agg route handles them); reaching here means a route
        # explicitly refused, which is the client's query class problem.
        return bad_request(str(error), "unsupported_query")
    if isinstance(error, CatalogError):
        return ApiError(404, "unknown_table", str(error))
    if isinstance(error, TableError):
        return bad_request(str(error), "bad_rows")
    if isinstance(error, ServiceError) and "closed" in str(error):
        return shutting_down(str(error))
    return ApiError(500, "internal", f"{type(error).__name__}: {error}")
