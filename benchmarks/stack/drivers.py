"""The four workload drivers: set-up, one timed pass, and the off-clock check.

Every driver is a closed loop (callers are dashboards/BI tools that wait for
each reply), uses only the public surface of the stack -- ``VerdictService``'s
methods, the ``python -m repro.serve.http`` CLI and ``VerdictClient`` -- and
runs everything under default settings.  A driver touches a span recorder
only to mark where each operation begins and ends; what is *inside* an
operation is the business of :mod:`spans`.
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from server import ServerProcess, make_scratch_dir, process_peak_rss_mb
from spans import SpanRecorder
from workloads import HTTP_TENANT, Inputs, QuerySpec

from repro.db.catalog import Catalog
from repro.serve.client import VerdictClient
from repro.serve.http.protocol import answer_fingerprint, answer_to_state
from repro.serve.planner import ServiceBudget
from repro.serve.service import VerdictService
from repro.serve.store import SynopsisStore

#: The dashboard budget of the approximate in-process workloads.
INTERACTIVE = ServiceBudget.interactive(0.08)
EXACT = ServiceBudget.exact()
HTTP_MAX_RELATIVE_ERROR = 0.1
CLIENT_THREADS = 2  # at most nproc on the reference container

#: svc_exact checks every n-th answer: a brute-force answer over 2M rows
#: costs about what the engine's does, and the check is off the clock but
#: not off the run's time budget.
EXACT_CHECK_EVERY = 4
SOLO_EVERY = 4


@dataclass
class PassResult:
    """What one timed pass measured; accuracy is filled in by ``verify``."""

    #: perf_counter at the start of the timed pass (CLOCK_MONOTONIC, so the
    #: server child's spans share the time base).
    started: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_peak_mb: float = 0.0
    ops: int = 0
    failed: int = 0
    first_error: str = ""
    #: ``(start, seconds)`` of every ask, client side.
    asks: list[tuple[float, float]] = field(default_factory=list)
    #: ``(spec, answer, table epoch)`` kept for the off-clock check.
    answers: list[tuple[QuerySpec, object, int]] = field(default_factory=list)
    #: Program counts: must be identical between two passes over one input.
    counts: dict[str, float] = field(default_factory=dict)
    #: Driver-side measurements that are not spans (write latencies, ...).
    extras: dict[str, object] = field(default_factory=dict)
    score: oracle.Score = field(default_factory=oracle.Score)

    def fail(self, error: BaseException | str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = error if isinstance(error, str) else repr(error)


def _op(recorder: SpanRecorder | None, name: str):
    """The root span of one benchmark operation (nothing when untraced)."""
    return recorder.span(name) if recorder is not None else nullcontext()


def _service_counts(service: VerdictService, before: dict | None = None) -> dict:
    """Program counts from the service's public metrics (delta vs ``before``)."""
    snapshot = service.metrics.as_dict()
    counts = {f"route.{name}": entry["requests"] for name, entry in snapshot["routes"].items()}
    counts |= {f"event.{name}": count for name, count in snapshot["events"].items()}
    for key in ("scans", "partitions_total", "partitions_pruned", "rows_scanned"):
        counts[f"scan.{key}"] = snapshot["scan"][key]
    counts["synopsis.size"] = service.engine.synopsis_size()
    if before is not None:
        counts = {key: value - before.get(key, 0) for key, value in counts.items()}
        counts["synopsis.size"] = service.engine.synopsis_size()
    return counts


def _run_clients(result: PassResult, specs: list[QuerySpec], ask) -> None:
    """Closed loop over ``specs`` on ``CLIENT_THREADS`` threads.

    Thread ``k`` sends ``specs[k::CLIENT_THREADS]`` one after another through
    ``ask(k, spec)`` behind a common start line; the wall time of the whole
    loop, every ask's ``(start, seconds)`` and every answer land in
    ``result``.  A raising ask is counted and the loop goes on.
    """
    slots: list = [None] * len(specs)
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENT_THREADS)

    def client(offset: int) -> None:
        barrier.wait()
        for index in range(offset, len(specs), CLIENT_THREADS):
            begin = time.perf_counter()
            try:
                answer = ask(offset, specs[index])
            except Exception as error:  # a failed op is counted, the run goes on
                with lock:
                    result.fail(error)
                continue
            slots[index] = (begin, time.perf_counter() - begin, answer)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENT_THREADS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.started, result.wall_s = started, time.perf_counter() - started
    result.ops = len(specs)
    for spec, slot in zip(specs, slots):
        if slot is not None:
            result.asks.append(slot[:2])
            result.answers.append((spec, slot[2], 0))
    result.asks.sort()


class Driver:
    """Base: one workload's lifecycle.  ``close`` is idempotent."""

    name = ""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.sizing = inputs.sizing

    def setup(self, recorder: SpanRecorder | None) -> None:
        raise NotImplementedError

    def run(self, recorder: SpanRecorder | None) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# svc_learned
# --------------------------------------------------------------------------- #


class SvcLearned(Driver):
    name = "svc_learned"
    service: VerdictService | None = None

    def setup(self, recorder) -> None:
        self.catalog = workloads.customer1_catalog(self.sizing.learned_rows)
        self.service = VerdictService(self.catalog)
        for spec in self.inputs.train:
            self.service.record_answer(spec.sql)
        self.service.train()
        for spec in self.inputs.warm:
            self.service.query(spec.sql, budget=INTERACTIVE, record=False)

    def run(self, recorder) -> PassResult:
        result = PassResult()
        service = self.service
        before = _service_counts(service)
        cpu = time.process_time()
        started = time.perf_counter()
        for spec in self.inputs.queries:
            begin = time.perf_counter()
            try:
                with _op(recorder, "bench.ask"):
                    answer = service.query(spec.sql, budget=INTERACTIVE, record=True)
            except Exception as error:  # a failed op is counted, the run goes on
                result.fail(error)
                continue
            result.asks.append((begin, time.perf_counter() - begin))
            result.answers.append((spec, answer, 0))
        result.started, result.wall_s = started, time.perf_counter() - started
        result.cpu_s = time.process_time() - cpu
        result.rss_peak_mb = process_peak_rss_mb()
        result.ops = len(self.inputs.queries)
        result.counts = _service_counts(service, before)
        return result

    def verify(self, result: PassResult) -> None:
        flat = workloads.customer1_flat(self.catalog)
        _check_served(result, [flat])

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def _check_served(result: PassResult, epochs: list[workloads.FlatData], every: int = 1) -> None:
    """Score in-process answers against the oracle (``epochs[i]`` = table state)."""
    for index, (spec, answer, epoch) in enumerate(result.answers):
        if index % every:
            continue
        truth = oracle.evaluate(epochs[epoch], spec)
        exact = answer.route.value == "exact"
        if not oracle.check_answer(result.score, truth, oracle.served_rows(answer), exact):
            result.fail(f"wrong answer for {spec.sql!r}")


# --------------------------------------------------------------------------- #
# svc_exact
# --------------------------------------------------------------------------- #


class SvcExact(Driver):
    name = "svc_exact"
    service: VerdictService | None = None

    def setup(self, recorder) -> None:
        catalog = Catalog()
        catalog.add_table(workloads.sales_table(self.inputs.flat), fact=True)
        self.service = VerdictService(catalog)
        for spec in self.inputs.warm:
            self.service.query(spec.sql, budget=EXACT, record=False)

    def run(self, recorder) -> PassResult:
        result = PassResult()
        service = self.service
        queries = self.inputs.queries

        def ask(_, spec: QuerySpec):
            with _op(recorder, "bench.ask"):
                return service.query(spec.sql, budget=EXACT, record=False)

        before = _service_counts(service)
        cpu = time.process_time()
        _run_clients(result, queries, ask)
        result.cpu_s = time.process_time() - cpu
        result.rss_peak_mb = process_peak_rss_mb()
        result.counts = _service_counts(service, before)
        if recorder is not None:
            # The same work with nobody to contend with: one thread, a
            # sample of the queries, re-spelt so the answer cache misses.
            for spec in queries[::SOLO_EVERY]:
                with _op(recorder, "bench.solo"):
                    service.query(spec.sql + " ", budget=EXACT, record=False)
        return result

    def verify(self, result: PassResult) -> None:
        _check_served(result, [self.inputs.flat], every=EXACT_CHECK_EVERY)
        not_exact = sum(a.route.value != "exact" for _, a, _ in result.answers)
        if not_exact:
            result.fail(f"{not_exact} answers did not take the exact route")

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# --------------------------------------------------------------------------- #
# http_cached
# --------------------------------------------------------------------------- #


class HttpCached(Driver):
    name = "http_cached"
    server: ServerProcess | None = None

    def setup(self, recorder) -> None:
        spans_out = None
        if recorder is not None:
            spans_out = make_scratch_dir("spans-") / "server.jsonl"
        self.server = ServerProcess(
            self.sizing.http_rows, workloads.DATA_SEED, HTTP_TENANT, spans_out=spans_out
        )
        self.clients = [
            VerdictClient(port=self.server.port, tenant=HTTP_TENANT)
            for _ in range(CLIENT_THREADS)
        ]
        first = self.clients[0]
        for spec in self.inputs.train:
            first.record(spec.sql)
        first.train()
        # Warm every template once: its first answer is what each repeat
        # must reproduce.  Every connection asks, so every handler thread
        # exists before the clock starts.
        self.reference = {spec.sql: self._ask(first, spec) for spec in self.inputs.queries}
        for client in self.clients[1:]:
            self._ask(client, self.inputs.queries[0])

    @staticmethod
    def _ask(client: VerdictClient, spec: QuerySpec) -> dict:
        return client.ask(
            spec.sql, max_relative_error=HTTP_MAX_RELATIVE_ERROR, record=False
        )

    def run(self, recorder) -> PassResult:
        result = PassResult()
        server = self.server
        cpu = time.process_time() + server.cpu_seconds()
        _run_clients(
            result, self.inputs.asks, lambda offset, spec: self._ask(self.clients[offset], spec)
        )
        result.cpu_s = time.process_time() + server.cpu_seconds() - cpu
        result.rss_peak_mb = server.peak_rss_mb()
        self._collect(result, recorder)
        return result

    def _collect(self, result: PassResult, recorder) -> None:
        """Counts from ``/v1/metrics``, then the logs the stopped server left."""
        client = self.clients[0]
        tenant = client.metrics(tenant=HTTP_TENANT)["metrics"]
        whole = client.metrics(tenant="")
        admission, governor = whole["admission"], whole["governor"]
        result.counts = {
            f"route.{name}": entry["requests"] for name, entry in tenant["routes"].items()
        }
        result.counts |= {
            "admission.admitted": admission["admitted"],
            "admission.shed": admission["shed"],
            "governor.shed": sum(
                state["shed_tokens"] + state["shed_concurrency"]
                for state in governor["tenants"].values()
            ),
        }
        result.extras["request_id"] = client.last_request_id or ""
        for connection in self.clients:
            connection.close()
        server = self.server
        server.stop()
        records = server.audit_records()
        asks = [r["latency_s"] for r in records if r["endpoint"] == "POST /v1/ask"]
        result.extras["handle_s"] = asks[-len(result.asks) :]
        result.extras["audit_bytes_per_req"] = server.audit_log_bytes() / max(len(records), 1)
        result.extras["trace_bytes_per_req"] = server.trace_log_bytes() / max(
            whole.get("tracer", {}).get("finished", 0), 1
        )
        if recorder is not None and server.spans_out is not None:
            recorder.extend_from(server.spans_out)

    def verify(self, result: PassResult) -> None:
        table = workloads.http_sales_table(self.sizing.http_rows)
        flat = workloads.sales_flat(table)
        # Accuracy is a property of the 64 first answers; every repeat must
        # be a cache hit that reproduces its template's first answer.
        for spec in self.inputs.queries:
            state = self.reference[spec.sql]
            truth = oracle.evaluate(flat, spec)
            exact = state["route"] == "exact"
            if not oracle.check_answer(result.score, truth, oracle.state_rows(state), exact):
                result.fail(f"wrong first answer for {spec.sql!r}")
        prints = {sql: answer_fingerprint(state) for sql, state in self.reference.items()}
        for spec, state, _ in result.answers:
            if not state["from_cache"] or answer_fingerprint(state) != prints[spec.sql]:
                result.fail(f"repeat of {spec.sql!r} was not the cached first answer")

    def close(self) -> None:
        if self.server is not None:
            for connection in self.clients:
                connection.close()
            self.server.cleanup()
            if self.server.spans_out is not None:
                shutil.rmtree(self.server.spans_out.parent, ignore_errors=True)
            self.server = None


# --------------------------------------------------------------------------- #
# svc_ingest
# --------------------------------------------------------------------------- #


class SvcIngest(Driver):
    name = "svc_ingest"
    service: VerdictService | None = None
    directory: Path | None = None

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        # Rows to append are inputs: generated before any clock starts.
        self.appends = [
            workloads.customer1_catalog(self.sizing.ingest_append_rows, seed).table("sales")
            for seed in inputs.append_seeds
        ]

    def setup(self, recorder) -> None:
        self.catalog = workloads.customer1_catalog(self.sizing.ingest_rows)
        self.base_fact = self.catalog.table("sales")
        self.directory = make_scratch_dir("store-")
        self.service = VerdictService(self.catalog, store=SynopsisStore(self.directory))
        for spec in self.inputs.train:
            self.service.record_answer(spec.sql)
        self.service.train()

    def run(self, recorder) -> PassResult:
        result = PassResult()
        service = self.service
        asks = iter(self.inputs.asks)
        appends = iter(self.appends)
        writes: list[float] = []
        epoch = 0
        ops = 0

        def timed(name: str, call, *args, **kwargs):
            nonlocal ops
            ops += 1
            begin = time.perf_counter()
            try:
                with _op(recorder, name):
                    value = call(*args, **kwargs)
            except Exception as error:
                result.fail(error)
                return begin, None, None
            return begin, time.perf_counter() - begin, value

        cpu = time.process_time()
        started = time.perf_counter()
        for number, spec in enumerate(self.inputs.queries, start=1):
            _, seconds, _ = timed("bench.record", service.record_answer, spec.sql)
            if seconds is not None:
                writes.append(seconds)
            if number % workloads.INGEST_ASK_EVERY == 0:
                ask = next(asks)
                begin, seconds, answer = timed(
                    "bench.ask", service.query, ask.sql, budget=INTERACTIVE, record=False
                )
                if seconds is not None:
                    result.asks.append((begin, seconds))
                    result.answers.append((ask, answer, epoch))
            if number % workloads.INGEST_TRAIN_EVERY == 0:
                timed("bench.train", service.train)
            if number % workloads.INGEST_APPEND_EVERY == 0:
                timed("bench.append", service.append, "sales", next(appends))
                epoch += 1
            if number % workloads.INGEST_SNAPSHOT_EVERY == 0:
                timed("bench.snapshot", service.snapshot)

        def probe(target: VerdictService, spec: QuerySpec) -> bytes | None:
            _, _, answer = timed(
                "bench.probe", target.query, spec.sql, budget=INTERACTIVE, record=False
            )
            return None if answer is None else answer_fingerprint(answer_to_state(answer))

        before_restart = [probe(service, spec) for spec in self.inputs.probes]
        result.counts = _service_counts(service)
        live_snippets = service.engine.synopsis_size()
        timed("bench.close", service.close)
        stored = sum(p.stat().st_size for p in self.directory.iterdir() if p.is_file())
        # Restart: the base data is the database's (same catalog object);
        # the learned state comes back from the store directory alone.
        restart = time.perf_counter()
        with _op(recorder, "bench.restart"):
            service = self.service = VerdictService(
                self.catalog, store=SynopsisStore(self.directory)
            )
        after_restart = [probe(service, self.inputs.probes[0])]
        restart_s = time.perf_counter() - restart
        after_restart += [probe(service, spec) for spec in self.inputs.probes[1:]]
        result.started, result.wall_s = started, time.perf_counter() - started
        result.cpu_s = time.process_time() - cpu
        result.rss_peak_mb = process_peak_rss_mb()
        result.ops = ops + 1  # the restart itself
        if not service.restored:
            result.fail("restarted service did not restore from its store")
        for spec, was, now in zip(self.inputs.probes, before_restart, after_restart):
            if was is None or was != now:
                result.fail(f"probe {spec.sql!r} changed across the restart")
        store = service.store
        result.counts |= {
            "store.deltas_replayed": store.counters["deltas_replayed"],
            "store.snippets_restored": service.engine.synopsis_size(),
        }
        result.extras |= {
            "write_s": writes,
            "restart_s": restart_s,
            "store_bytes_per_snippet": stored / max(live_snippets, 1),
        }
        return result

    def verify(self, result: PassResult) -> None:
        flat = workloads.customer1_flat(self.catalog, self.base_fact)
        epochs = [flat]
        for table in self.appends:
            epochs.append(epochs[-1].appended(workloads.customer1_flat(self.catalog, table)))
        _check_served(result, epochs)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


DRIVERS = {driver.name: driver for driver in (SvcLearned, SvcExact, HttpCached, SvcIngest)}
