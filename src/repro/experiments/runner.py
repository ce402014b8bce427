"""Experiment runner: NoLearn vs Verdict over a query trace.

The runner reproduces the experimental procedure of Section 8.3:

1. process the first half of the trace (the *training* queries): NoLearn just
   answers them, Verdict additionally keeps their raw answers in the query
   synopsis;
2. run the offline step (parameter learning + covariance factorisation);
3. for each remaining (*test*) query, run online aggregation and record, after
   every batch, the elapsed model time, the average relative error bound, and
   the average actual relative error -- once for the raw (NoLearn) answers and
   once for Verdict's improved answers computed from the very same raw
   answers;
4. derive speedups (time until a target error bound is reached) and error
   reductions (lowest bound reached within a time budget) from those
   per-batch profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.aqp.estimators import confidence_multiplier
from repro.aqp.online_agg import OnlineAggregationEngine
from repro.aqp.time_bound import TimeBoundEngine
from repro.aqp.types import AQPAnswer
from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.core.engine import VerdictAnswer, VerdictEngine
from repro.db.catalog import Catalog
from repro.db.executor import ExactExecutor, QueryResult
from repro.experiments.metrics import actual_relative_error
from repro.sqlparser import ast


@dataclass(frozen=True)
class ProfilePoint:
    """One point of a runtime-vs-error profile (one online-aggregation batch)."""

    elapsed_seconds: float
    relative_error_bound: float
    actual_relative_error: float


@dataclass
class QueryRunResult:
    """Per-query outcome: the NoLearn and Verdict profiles plus cell details."""

    sql: str
    supported: bool
    baseline: list[ProfilePoint] = field(default_factory=list)
    verdict: list[ProfilePoint] = field(default_factory=list)
    verdict_cells: list[tuple[float, float]] = field(default_factory=list)
    baseline_cells: list[tuple[float, float]] = field(default_factory=list)
    overhead_seconds: float = 0.0


class ExperimentRunner:
    """Drives NoLearn (online aggregation) and Verdict over the same trace."""

    def __init__(
        self,
        catalog: Catalog,
        sampling: SamplingConfig | None = None,
        cost_model: CostModelConfig | None = None,
        config: VerdictConfig | None = None,
    ):
        self.catalog = catalog
        self.aqp = OnlineAggregationEngine(
            catalog, sampling=sampling, cost_model=cost_model
        )
        self.time_bound_engine = TimeBoundEngine(
            catalog,
            sampling=sampling,
            cost_model=cost_model,
            sample_store=self.aqp.samples,
        )
        self.verdict = VerdictEngine(
            catalog, self.aqp, config=config, time_bound_engine=self.time_bound_engine
        )
        self.exact = ExactExecutor(catalog)
        self.multiplier = confidence_multiplier(self.verdict.config.confidence)
        self._exact_cache: dict[ast.Query, QueryResult] = {}

    # ---------------------------------------------------------------- training

    def train_on(self, queries: Sequence[Union[str, ast.Query]], learn: bool = True) -> int:
        """Process training queries: record their raw snippets, then train.

        Returns the number of supported training queries recorded.
        """
        recorded = 0
        for query in queries:
            parsed, check = self.verdict.check(query)
            if not check.supported:
                continue
            raw = self.aqp.final_answer(parsed)
            self.verdict.record(parsed, raw)
            recorded += 1
        self.verdict.train(learn)
        return recorded

    # -------------------------------------------------------------- evaluation

    def evaluate(
        self,
        queries: Sequence[Union[str, ast.Query]],
        record: bool = True,
        max_batches: int | None = None,
    ) -> list[QueryRunResult]:
        """Run test queries, producing per-batch NoLearn and Verdict profiles."""
        return [self.evaluate_query(query, record=record, max_batches=max_batches) for query in queries]

    def evaluate_query(
        self,
        query: Union[str, ast.Query],
        record: bool = True,
        max_batches: int | None = None,
    ) -> QueryRunResult:
        parsed, check = self.verdict.check(query)
        exact = self._exact_for(parsed)
        result = QueryRunResult(
            sql=parsed.text or "", supported=check.supported
        )
        last_raw: AQPAnswer | None = None
        for raw in self.aqp.run(parsed):
            last_raw = raw
            baseline_cells = self._aqp_cells(raw, exact)
            result.baseline.append(
                ProfilePoint(
                    elapsed_seconds=raw.elapsed_seconds,
                    relative_error_bound=raw.mean_relative_error_bound(self.multiplier),
                    actual_relative_error=actual_relative_error(baseline_cells),
                )
            )
            verdict_answer = self.verdict.process_answer(parsed, raw, check)
            verdict_cells = self._verdict_cells(verdict_answer, exact)
            result.verdict.append(
                ProfilePoint(
                    elapsed_seconds=verdict_answer.elapsed_seconds,
                    relative_error_bound=verdict_answer.mean_relative_error_bound(self.multiplier),
                    actual_relative_error=actual_relative_error(verdict_cells),
                )
            )
            result.overhead_seconds += verdict_answer.overhead_seconds
            result.baseline_cells.extend(
                self._bound_vs_actual_cells_aqp(raw, exact)
            )
            result.verdict_cells.extend(
                self._bound_vs_actual_cells_verdict(verdict_answer, exact)
            )
            if max_batches is not None and raw.batches_processed >= max_batches:
                break
        if record and check.supported and last_raw is not None:
            self.verdict.record(parsed, last_raw)
        return result

    def evaluate_time_bound(
        self,
        query: Union[str, ast.Query],
        time_budget_s: float,
        record: bool = True,
    ) -> tuple[ProfilePoint, ProfilePoint]:
        """Figure 11: NoLearn vs Verdict on a time-bound engine, same budget."""
        parsed, check = self.verdict.check(query)
        exact = self._exact_for(parsed)
        baseline_raw = self.time_bound_engine.execute(parsed, time_budget_s)
        baseline_point = ProfilePoint(
            elapsed_seconds=baseline_raw.elapsed_seconds,
            relative_error_bound=baseline_raw.mean_relative_error_bound(self.multiplier),
            actual_relative_error=actual_relative_error(self._aqp_cells(baseline_raw, exact)),
        )
        verdict_answer = self.verdict.execute_time_bound(
            parsed, time_budget_s, record=record
        )
        verdict_point = ProfilePoint(
            elapsed_seconds=verdict_answer.elapsed_seconds,
            relative_error_bound=verdict_answer.mean_relative_error_bound(self.multiplier),
            actual_relative_error=actual_relative_error(
                self._verdict_cells(verdict_answer, exact)
            ),
        )
        return baseline_point, verdict_point

    # ----------------------------------------------------------------- helpers

    def _exact_for(self, query: ast.Query) -> QueryResult:
        if query not in self._exact_cache:
            self._exact_cache[query] = self.exact.execute(query)
        return self._exact_cache[query]

    def _aqp_cells(self, answer: AQPAnswer, exact: QueryResult) -> list[tuple[float, float]]:
        exact_by_group = exact.by_group()
        cells: list[tuple[float, float]] = []
        for row in answer.rows:
            exact_row = exact_by_group.get(row.group_values)
            if exact_row is None:
                continue
            for name, estimate in row.estimates.items():
                if name in exact_row.aggregates:
                    cells.append((estimate.value, exact_row.aggregates[name]))
        return cells

    def _verdict_cells(
        self, answer: VerdictAnswer, exact: QueryResult
    ) -> list[tuple[float, float]]:
        exact_by_group = exact.by_group()
        cells: list[tuple[float, float]] = []
        for row in answer.rows:
            exact_row = exact_by_group.get(row.group_values)
            if exact_row is None:
                continue
            for name, estimate in row.estimates.items():
                if name in exact_row.aggregates:
                    cells.append((estimate.value, exact_row.aggregates[name]))
        return cells

    def _bound_vs_actual_cells_aqp(
        self, answer: AQPAnswer, exact: QueryResult
    ) -> list[tuple[float, float]]:
        """(relative error bound, actual relative error) per cell."""
        exact_by_group = exact.by_group()
        pairs: list[tuple[float, float]] = []
        for row in answer.rows:
            exact_row = exact_by_group.get(row.group_values)
            if exact_row is None:
                continue
            for name, estimate in row.estimates.items():
                truth = exact_row.aggregates.get(name)
                if truth is None or abs(truth) < 1e-12:
                    continue
                bound = estimate.relative_error_bound(self.multiplier)
                actual = abs(estimate.value - truth) / abs(truth)
                if math.isfinite(bound):
                    pairs.append((bound, actual))
        return pairs

    def _bound_vs_actual_cells_verdict(
        self, answer: VerdictAnswer, exact: QueryResult
    ) -> list[tuple[float, float]]:
        exact_by_group = exact.by_group()
        pairs: list[tuple[float, float]] = []
        for row in answer.rows:
            exact_row = exact_by_group.get(row.group_values)
            if exact_row is None:
                continue
            for name, estimate in row.estimates.items():
                truth = exact_row.aggregates.get(name)
                if truth is None or abs(truth) < 1e-12:
                    continue
                bound = estimate.relative_error_bound(self.multiplier)
                actual = abs(estimate.value - truth) / abs(truth)
                if math.isfinite(bound):
                    pairs.append((bound, actual))
        return pairs


# --------------------------------------------------------------------------- #
# Profile analysis helpers
# --------------------------------------------------------------------------- #


def time_to_reach_bound(profile: Sequence[ProfilePoint], target_bound: float) -> float:
    """Elapsed model time until the error bound first drops to ``target_bound``.

    If the bound is never reached, the profile's final elapsed time is
    returned (matching how a user would wait for the full sample scan).
    """
    for point in profile:
        if point.relative_error_bound <= target_bound:
            return point.elapsed_seconds
    return profile[-1].elapsed_seconds if profile else float("inf")


def error_bound_at_time(profile: Sequence[ProfilePoint], time_budget_s: float) -> float:
    """Lowest error bound achieved within ``time_budget_s`` model seconds.

    If even the first batch exceeds the budget, the first batch's bound is
    returned (a query cannot return without processing at least one batch).
    """
    best: float | None = None
    for point in profile:
        if point.elapsed_seconds <= time_budget_s:
            best = point.relative_error_bound if best is None else min(best, point.relative_error_bound)
    if best is None:
        return profile[0].relative_error_bound if profile else float("inf")
    return best


def actual_error_at_time(profile: Sequence[ProfilePoint], time_budget_s: float) -> float:
    """Actual relative error of the last answer within ``time_budget_s``."""
    chosen: ProfilePoint | None = None
    for point in profile:
        if point.elapsed_seconds <= time_budget_s:
            chosen = point
    if chosen is None:
        return profile[0].actual_relative_error if profile else float("inf")
    return chosen.actual_relative_error


# --------------------------------------------------------------------------- #
# Serving-mode replay
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServeReplayReport:
    """Outcome of replaying a query trace through a :class:`VerdictService`."""

    queries: int
    failures: int
    wall_seconds: float
    queries_per_second: float
    metrics: dict


def replay_trace_through_service(
    service,
    queries: Sequence[Union[str, ast.Query]],
    budget=None,
    record: bool = False,
) -> ServeReplayReport:
    """Replay a trace through a service's worker pool and report throughput.

    Every query is submitted to the service's bounded worker pool, so the
    measured wall-clock throughput reflects the concurrency the service
    actually provides.  Per-route latency histograms accumulate in
    ``service.metrics`` (returned in the report as a plain dict).

    Parameters
    ----------
    service:
        A started :class:`repro.serve.service.VerdictService`.
    queries:
        The trace to replay, in order of submission.
    budget:
        Optional :class:`repro.serve.planner.ServiceBudget` applied to every
        request.
    record:
        Whether served queries are recorded into the synopsis (off by
        default: replay measures serving, not ingestion).
    """
    import time as _time

    from repro.errors import ReproError

    futures = []
    started = _time.perf_counter()
    for query in queries:
        futures.append(service.submit(query, budget, record))
    failures = 0
    for future in futures:
        try:
            future.result()
        except ReproError:
            failures += 1
    wall = _time.perf_counter() - started
    served = len(queries) - failures
    return ServeReplayReport(
        queries=len(queries),
        failures=failures,
        wall_seconds=wall,
        queries_per_second=served / wall if wall > 0 else 0.0,
        metrics=service.metrics.as_dict(),
    )


def replay_trace_through_client(
    host: str,
    port: int,
    tenant: str,
    queries: Sequence[str],
    concurrency: int = 8,
    max_relative_error: float | None = None,
    max_latency_s: float | None = None,
    record: bool | None = False,
    timeout_s: float = 60.0,
    warmup: bool = True,
) -> ServeReplayReport:
    """Replay a trace over the wire: N client threads against a live server.

    The HTTP twin of :func:`replay_trace_through_service`: the same trace,
    but each query travels through :class:`repro.serve.client.VerdictClient`
    to a running :class:`repro.serve.http.VerdictHTTPServer`, so the
    measured throughput includes JSON serialisation, the socket round trip,
    and admission control.  Queries are dealt round-robin to ``concurrency``
    threads, each owning one keep-alive client connection (the client is not
    thread-safe).  Requests shed with 429 are retried by the client's
    backoff; the report's ``metrics`` carries client-side latencies
    (seconds) per query index under ``"client_latencies"``.

    With ``warmup`` (the default) every worker establishes its connection
    with a health probe and the fleet synchronises on a barrier before the
    clock starts, so the reported throughput measures steady-state serving
    rather than N simultaneous TCP handshakes.
    """
    import threading
    import time as _time

    from repro.serve.client import ClientError, VerdictClient

    latencies: list[float | None] = [None] * len(queries)
    failures = [0] * concurrency
    ready = threading.Barrier(concurrency + 1) if warmup else None

    def worker(worker_index: int) -> None:
        client = VerdictClient(
            host=host,
            port=port,
            tenant=tenant,
            timeout_s=timeout_s,
            seed=worker_index,
        )
        with client:
            if ready is not None:
                try:
                    client.health()  # connect + first exchange off the clock
                finally:
                    ready.wait(timeout=timeout_s)
            for index in range(worker_index, len(queries), concurrency):
                started = _time.perf_counter()
                try:
                    client.ask(
                        queries[index],
                        max_relative_error=max_relative_error,
                        max_latency_s=max_latency_s,
                        record=record,
                    )
                except ClientError:
                    failures[worker_index] += 1
                    continue
                latencies[index] = _time.perf_counter() - started

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(concurrency)
    ]
    started = _time.perf_counter()
    for thread in threads:
        thread.start()
    if ready is not None:
        ready.wait(timeout=timeout_s)
        started = _time.perf_counter()  # every connection is warm: go
    for thread in threads:
        thread.join()
    wall = _time.perf_counter() - started
    failed = sum(failures)
    served = len(queries) - failed
    return ServeReplayReport(
        queries=len(queries),
        failures=failed,
        wall_seconds=wall,
        queries_per_second=served / wall if wall > 0 else 0.0,
        metrics={
            "client_latencies": [value for value in latencies if value is not None],
            "concurrency": concurrency,
        },
    )


def aggregate_profile_by_batch(
    results: Iterable[QueryRunResult], engine: str = "verdict"
) -> list[ProfilePoint]:
    """Average the per-batch profiles of many queries (Figure 4's curves)."""
    profiles = [
        result.verdict if engine == "verdict" else result.baseline
        for result in results
        if result.supported
    ]
    profiles = [p for p in profiles if p]
    if not profiles:
        return []
    num_batches = min(len(profile) for profile in profiles)
    aggregated: list[ProfilePoint] = []
    for index in range(num_batches):
        elapsed = sum(profile[index].elapsed_seconds for profile in profiles) / len(profiles)
        bound = sum(profile[index].relative_error_bound for profile in profiles) / len(profiles)
        actual = sum(profile[index].actual_relative_error for profile in profiles) / len(profiles)
        aggregated.append(
            ProfilePoint(
                elapsed_seconds=elapsed,
                relative_error_bound=bound,
                actual_relative_error=actual,
            )
        )
    return aggregated

