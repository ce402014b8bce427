"""From one pass's measurements to named metrics.

:func:`end_to_end` needs only the untraced pass.  :func:`per_layer` reads the
spans of the traced pass, the program counts, and -- for timings that need no
span -- the untraced pass of the same run.  A per-layer metric whose layer did
no work on the workload, or whose wrap point no longer exists, is ``None``
("not measured"); the caller decides how to print that.
"""

from __future__ import annotations

import json
import math
import statistics

from drivers import PassResult
from spans import Span, SpanIndex, SpanRecorder
from workloads import HTTP_TENANT

MS, US = 1e3, 1e6


def quantile(values: list[float], q: float) -> float | None:
    """Nearest-rank quantile; ``None`` for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)]


def _scaled(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def end_to_end(result: PassResult, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced pass (all defined, none zero)."""
    latencies = [seconds for _, seconds in result.asks]
    return {
        "setup_s": setup_s,
        "qps": (result.ops - result.failed) / result.wall_s,
        "lat_p50_ms": quantile(latencies, 0.50) * MS,
        "cpu_s_per_kop": result.cpu_s / result.ops * 1000.0,
        "rss_peak_mb": result.rss_peak_mb,
        **result.score.metrics(),
    }


def sample_counts(result: PassResult) -> dict[str, int]:
    """How many samples stand behind the timings and the accuracy medians."""
    return {
        "ops": result.ops,
        "asks": len(result.asks),
        "approximate_cells": result.score.approximate_cells,
        "exact_cells": result.score.exact_cells,
    }


# --------------------------------------------------------------------------- #
# Per-layer
# --------------------------------------------------------------------------- #

#: Root spans that are one ask: the driver's, or the server child's handler.
_ASK_ROOTS = ("bench.ask", "serve.http.server.handle")


def per_layer(
    untraced: PassResult, traced: PassResult, recorder: SpanRecorder
) -> dict[str, float | None]:
    window = (traced.started, traced.started + traced.wall_s)
    timed = [s for s in recorder.spans if window[0] <= s.start and s.end <= window[1]]
    everything = SpanIndex(recorder.spans)
    index = SpanIndex(timed)
    counts = traced.counts

    def p(name: str, q: float, factor: float) -> float | None:
        return _scaled(quantile(index.seconds(name), q), factor)

    roots = {s.id: s for s in timed if s.parent is None}
    ask_roots = {i for i, s in roots.items() if s.name in _ASK_ROOTS}
    asks = len(ask_roots)

    def per_ask(spans: list[Span]) -> float | None:
        return sum(s.request in ask_roots for s in spans) / asks if asks else None

    metrics: dict[str, float | None] = {}

    # sqlparser / engine check / planner
    metrics["sqlparser.parse_us_p50"] = p("sqlparser.parse", 0.5, US)
    metrics["sqlparser.parses_per_ask"] = per_ask(index.named("sqlparser.parse"))
    metrics["core.engine.check_us_p50"] = p("core.engine.check", 0.5, US)
    metrics["serve.planner.plan_us_p50"] = p("serve.planner.plan", 0.5, US)

    # service
    queries = index.named("serve.service.query")
    requests = sum(v for k, v in counts.items() if k.startswith("route."))
    metrics["serve.service.cache_hit_ratio"] = (
        counts.get("route.cached", 0) / requests if requests else None
    )
    hits = [s.seconds for s in queries if (s.attrs or {}).get("from_cache")]
    metrics["serve.service.hit_us_p50"] = _scaled(quantile(hits, 0.5), US)
    metrics["serve.service.self_ms_p50"] = _scaled(
        quantile([index.self_seconds(s) for s in queries], 0.5), MS
    )
    metrics["serve.service.lat_growth_ratio"] = _growth(untraced)

    # aqp
    batches = index.named("aqp.next")
    metrics["aqp.scan_ms_p50"] = p("aqp.next", 0.5, MS)
    metrics["aqp.batches_per_ask"] = per_ask(batches)
    deepest: dict[int, int] = {}
    for span in batches:
        rows = (span.attrs or {}).get("rows_scanned", 0)
        deepest[span.request] = max(deepest.get(span.request, 0), rows)
    metrics["aqp.sample_rows_per_ask"] = (
        sum(rows for request, rows in deepest.items() if request in ask_roots) / asks
        if asks
        else None
    )

    # inference
    inferences = index.named("core.inference.process_answer")
    metrics["core.inference.infer_ms_p50"] = p("core.inference.process_answer", 0.5, MS)
    metrics["core.inference.infer_ms_p95"] = p("core.inference.process_answer", 0.95, MS)
    cells = sum((s.attrs or {}).get("cells", 0) for s in inferences)
    improved = sum((s.attrs or {}).get("improved", 0) for s in inferences)
    metrics["core.inference.improved_ratio"] = improved / cells if cells else None

    # record / synopsis / learning
    records = index.named("core.engine.record")
    metrics["core.engine.record_ms_p50"] = p("core.engine.record", 0.5, MS)
    metrics["core.engine.record_ms_p95"] = p("core.engine.record", 0.95, MS)
    metrics["core.engine.snippets_per_record"] = (
        statistics.fmean((s.attrs or {}).get("snippets", 0) for s in records)
        if records
        else None
    )
    metrics["core.synopsis.size_final"] = counts.get("synopsis.size")
    trains = everything.seconds("core.learning.train")  # set-up's training too
    metrics["core.learning.train_s_total"] = sum(trains) if trains else None
    metrics["core.learning.train_calls"] = float(len(trains))

    # exact executor / scan
    metrics["db.executor.exact_ms_p50"] = p("db.executor.execute", 0.5, MS)
    solo_roots = {s.id for s in everything.named("bench.solo")}
    solo = [
        s.seconds for s in everything.named("db.executor.execute") if s.request in solo_roots
    ]
    metrics["db.executor.solo_ms_p50"] = _scaled(quantile(solo, 0.5), MS)
    scanned = counts.get("scan.rows_scanned")
    metrics["db.scan.rows_scanned_per_ask"] = (
        scanned / len(traced.asks) if scanned is not None and traced.asks else None
    )
    partitions = counts.get("scan.partitions_total")
    metrics["db.scan.prune_fraction"] = (
        counts.get("scan.partitions_pruned", 0) / partitions if partitions else None
    )

    # store
    flushes = index.named("serve.store.flush")
    snapshots = index.named("serve.store.save_snapshot")
    metrics["serve.store.flush_ms_p50"] = p("serve.store.flush", 0.5, MS)
    metrics["serve.store.flush_ms_max"] = p("serve.store.flush", 1.0, MS)
    metrics["serve.store.flushes"] = (
        float(sum((s.attrs or {}).get("kind") != "noop" for s in flushes))
        if flushes
        else None
    )
    metrics["serve.store.wal_bytes_per_record"] = _wal_bytes_per_record(
        flushes, snapshots, len(index.named("bench.record"))
    )
    metrics["serve.store.snapshot_ms_p50"] = p("serve.store.save_snapshot", 0.5, MS)
    metrics["serve.store.snapshot_bytes"] = (
        float(max(snapshots, key=lambda s: s.end).attrs["bytes"]) if snapshots else None
    )
    loads = index.seconds("serve.store.load_into")
    metrics["serve.store.load_s"] = loads[-1] if loads else None

    # HTTP front door
    metrics["serve.http.protocol.parse_ask_us_p50"] = p("serve.http.protocol.parse_ask", 0.5, US)
    encode: dict[int, float] = {}
    for name in ("serve.http.protocol.answer_to_state", "serve.http.server.respond"):
        for span in index.named(name):
            encode[span.request] = encode.get(span.request, 0.0) + span.seconds
    metrics["serve.http.protocol.encode_us_p50"] = _scaled(
        quantile(list(encode.values()), 0.5), US
    )
    metrics["serve.http.protocol.response_bytes_p50"] = _response_bytes_p50(untraced)
    metrics["serve.http.tenants.lease_us_p50"] = p("serve.http.tenants.lease", 0.5, US)
    metrics["serve.governor.price_us_p50"] = p("serve.governor.price", 0.5, US)
    metrics["serve.governor.admit_us_p50"] = p("serve.governor.admit", 0.5, US)
    metrics["serve.governor.shed"] = counts.get("governor.shed")
    metrics["serve.http.admission.admit_us_p50"] = p("serve.http.admission.admit", 0.5, US)
    metrics["serve.http.admission.queue_wait_ms_p95"] = p("serve.http.admission.admit", 0.95, MS)
    metrics["serve.http.admission.shed"] = counts.get("admission.shed")
    metrics["serve.http.audit.record_us_p50"] = p("serve.http.audit.record", 0.5, US)
    metrics["serve.http.audit.bytes_per_req"] = untraced.extras.get("audit_bytes_per_req")
    metrics["obs.trace.log_bytes_per_req"] = untraced.extras.get("trace_bytes_per_req")
    handle_p50 = quantile(untraced.extras.get("handle_s", []), 0.5)
    latencies = [seconds for _, seconds in untraced.asks]
    metrics["serve.http.server.handle_ms_p50"] = _scaled(handle_p50, MS)
    metrics["serve.client.rtt_ms_p50"] = (
        None if handle_p50 is None else (quantile(latencies, 0.5) - handle_p50) * MS
    )
    metrics["serve.http.lat_p99_ms"] = (
        quantile(latencies, 0.99) * MS if handle_p50 is not None else None
    )

    # the benchmark's own overhead
    metrics["bench.trace_overhead_ratio"] = (
        ((traced.ops - traced.failed) / traced.wall_s)
        / ((untraced.ops - untraced.failed) / untraced.wall_s)
    )
    metrics["bench.residual_ratio"] = _residual(traced, index, roots)

    # end-to-end by nature, but unable to carry a bound (see README)
    writes = untraced.extras.get("write_s", [])
    metrics["fail_ratio"] = untraced.failed / untraced.ops
    metrics["lat_p95_ms"] = quantile(latencies, 0.95) * MS
    metrics["write_p50_ms"] = _scaled(quantile(writes, 0.5), MS)
    metrics["write_p95_ms"] = _scaled(quantile(writes, 0.95), MS)
    metrics["store_bytes_per_snippet"] = untraced.extras.get("store_bytes_per_snippet")
    metrics["restart_s"] = untraced.extras.get("restart_s")
    return metrics


def _growth(result: PassResult) -> float | None:
    """Median ask latency of the last quarter over the first quarter."""
    latencies = [seconds for _, seconds in sorted(result.asks)]
    quarter = len(latencies) // 4
    if quarter < 2:
        return None
    return statistics.median(latencies[-quarter:]) / statistics.median(latencies[:quarter])


def _wal_bytes_per_record(flushes: list[Span], snapshots: list[Span], records: int):
    """Bytes appended to the delta log per ``record_answer``.

    The log is truncated by every snapshot, so growth is summed flush by
    flush from each flush's after-size, restarting at 0 after a snapshot.
    """
    if not flushes or not records:
        return None
    written, size = 0, 0
    for span in sorted(flushes + snapshots, key=lambda s: s.end):
        if span.name == "serve.store.save_snapshot":
            size = 0
        elif (span.attrs or {}).get("kind") == "delta":
            written += span.attrs["delta_bytes"] - size
            size = span.attrs["delta_bytes"]
    return written / records


def _response_bytes_p50(result: PassResult) -> float | None:
    request_id = result.extras.get("request_id")
    if request_id is None:
        return None
    sizes = [
        len(json.dumps({"tenant": HTTP_TENANT, "answer": state, "request_id": request_id}))
        for _, state, _ in result.answers
    ]
    return quantile(sizes, 0.5)


def _residual(traced: PassResult, index: SpanIndex, roots: dict[int, Span]) -> float | None:
    """Share of end-to-end time no wrapped layer accounts for."""
    handles = index.named("serve.http.server.handle")
    if handles:  # over HTTP the client's clock is the end-to-end time
        total = sum(seconds for _, seconds in traced.asks)
        covered = sum(span.seconds for span in handles)
    else:
        operations = [s for s in roots.values() if s.name.startswith("bench.")]
        total = sum(span.seconds for span in operations)
        covered = sum(index.child_seconds(span) for span in operations)
    return 1.0 - covered / total if total else None
