"""Thread-safe serving front door for concurrent Verdict queries.

:class:`VerdictService` turns the single-threaded :class:`VerdictEngine`
into a long-running, concurrent query service.  Requests run on the
caller's own thread (the HTTP front door's handler threads, a benchmark's
client threads); the service adds:

* per-fact-table reader/writer locks so reads of one table proceed in
  parallel while ``append`` / ``record`` on that table get exclusive
  access -- a request therefore always observes either the pre-append or
  the post-append state, never a mixture (no torn answers);
* an engine mutex serialising the inference step and every mutation of
  the shared learned state (the synopsis and prepared factorisations are
  shared across tables, so the per-table locks alone cannot protect them).
  Training needs nothing else: learned answers read ``models_version``
  inside it and no other route depends on the models;
* a bounded answer cache whose entries embed the synopsis version and the
  catalog version at store time -- any record, train, or append makes every
  older entry unreachable, so a cache hit can never serve stale data;
* a :class:`~repro.serve.store.SynopsisStore` hook: learned state is
  restored at start-up, flushed periodically after mutations, and written
  out as a full snapshot on graceful shutdown.

Routes (planned cheapest first by :class:`~repro.serve.planner.QueryPlanner`,
tried in order until one meets the budget):

* **cached** -- a current answer-cache entry within the error budget;
* **learned** and **online_agg** -- one sampled loop over
  ``OnlineAggregationEngine.run``; the learned route adds one inference
  step per batch (Figure 2).  Both stop at the first batch that meets the
  error budget (the first batch when there is none), at the latency budget,
  or when the budget is provably out of reach, and both serve the last
  estimate flagged *degraded* when the deadline cuts the loop after at
  least one batch.  Online aggregation runs only when inference errored:
  the improved bound is never larger (Theorem 1);
* **exact** -- the exact executor, the fallback of last resort.

Locking discipline (to stay deadlock-free):

1. a request thread holds at most one table lock at a time;
2. the engine mutex is only acquired while already holding a table lock (or
   no lock at all) and nothing else is acquired under it.

Shutdown discipline (:meth:`VerdictService.close`):

The service moves through three explicit lifecycle phases --
``serving -> draining -> closed``.  ``close()`` flips the phase to
*draining* (new requests are rejected), then drains, strictly in order:

1. every in-flight ``query``/``explain``/``append``/``record_answer``/
   ``train`` call -- tracked by an in-flight counter;
2. the background trainer (its swap is cheap and its results belong in
   the final snapshot);

and only then writes the single final store snapshot and flips the phase
to *closed*.  Concurrent ``close()`` calls block until the first closer
has written that snapshot, so "close returned" always means "the learned
state is durable"; ``flush()`` after close is a no-op, so nothing can be
written *behind* the final snapshot.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from repro import faults
from repro.aqp.estimators import confidence_multiplier
from repro.aqp.online_agg import OnlineAggregationEngine, budget_hopeless
from repro.aqp.types import AQPAnswer
from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.core.engine import AskPlan, VerdictAnswer, VerdictEngine
from repro.db.catalog import Catalog
from repro.db.executor import ExactExecutor
from repro.db.scan import ScanCounters
from repro.db.table import Table
from repro.deadline import CancelToken, Deadline, Limits
from repro.errors import (
    DeadlineExceeded,
    ExpressionError,
    QueryCancelled,
    ReproError,
    SchemaError,
    ServiceError,
)
from repro.obs.trace import Span, child, event, set_attrs
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import ServiceMetrics
from repro.serve.planner import QueryPlanner, Route, RouteDecision, ServiceBudget
from repro.serve.store import SynopsisStore
from repro.sqlparser import ast
from repro.sqlparser.checker import CheckResult

Value = Union[int, float, str]


# --------------------------------------------------------------------------- #
# Answers
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServedRow:
    """One output row of a served answer."""

    group_values: tuple[Value, ...]
    values: dict[str, float]
    errors: dict[str, float]


@dataclass(frozen=True)
class ServedAnswer:
    """What the service returns for one request."""

    sql: str
    route: Route
    rows: tuple[ServedRow, ...]
    relative_error_bound: float
    model_seconds: float
    wall_seconds: float
    supported: bool
    budget_met: bool = True
    from_cache: bool = False
    recorded: bool = False
    batches_processed: int = 0
    #: True when the request's wall-clock deadline expired before the error
    #: budget was met and this is the best *partial* estimate (still a valid
    #: estimate ± error, just less refined than asked for).  Degraded
    #: answers are never cached and never recorded into the synopsis.
    degraded: bool = False
    degraded_reason: str = ""

    def scalar(self) -> float:
        """The single value of a one-row, one-aggregate answer."""
        if len(self.rows) != 1 or len(self.rows[0].values) != 1:
            raise ValueError("scalar() requires a single-cell answer")
        return next(iter(self.rows[0].values.values()))

    def by_group(self) -> dict[tuple[Value, ...], ServedRow]:
        return {row.group_values: row for row in self.rows}


@dataclass
class _CacheEntry:
    answer: ServedAnswer
    # (synopsis, catalog, models) versions the answer was computed under;
    # the entry is current only while all three still match.  The models
    # version moves on training (foreground or background) and set_model,
    # so retrained models make every older entry unreachable even though
    # the synopsis and catalog did not move.  (Not state_epoch: that also
    # moves on lazy factor materialisation, which does not affect
    # already-computed answers and would evict the whole cache for nothing.)
    versions: tuple[int, int, int]


# --------------------------------------------------------------------------- #
# Reader/writer lock
# --------------------------------------------------------------------------- #


class ReadWriteLock:
    """A writer-preferring reader/writer lock.

    Multiple readers proceed concurrently; a writer waits for active readers
    to drain and blocks new readers while waiting, so appends cannot be
    starved by a stream of queries.  Non-reentrant by design -- the service's
    locking discipline never re-acquires.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._active_readers -= 1
                if not self._active_readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._condition:
            self._writers_waiting += 1
            while self._active_readers or self._writer_active:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._condition:
                self._writer_active = False
                self._condition.notify_all()


# --------------------------------------------------------------------------- #
# Service
# --------------------------------------------------------------------------- #


@dataclass
class _ServiceState:
    """Mutable bits guarded by the service's small internal locks."""

    cache: "OrderedDict" = field(default_factory=lambda: OrderedDict())
    mutations_since_flush: int = 0


class VerdictService:
    """Concurrent, budget-aware, persistent front door to a Verdict engine.

    Parameters
    ----------
    catalog:
        The database catalog to serve.
    store:
        Optional persistent synopsis store.  When given, previously persisted
        learned state is restored at construction, mutations are flushed
        every ``flush_every`` learned-state changes, and :meth:`close` writes
        a final full snapshot.
    config, sampling, cost_model:
        Forwarded to the underlying engines.  ``config.confidence`` is the
        level of every reported error bound and budget check.
    record_queries:
        Whether served supported queries are recorded into the synopsis
        (step 4 of Figure 2).  Can be overridden per request.
    cache_capacity:
        Maximum number of answers kept in the answer cache.
    auto_train_every:
        When set, a background training round (:meth:`train_async`) is
        kicked off after every ``auto_train_every`` learned-state mutations
        (records / appends), so correlation parameters track the workload
        continuously without any caller ever blocking on the O(n^3) learn.
        ``None`` (the default) disables automatic training.
    breaker_window, breaker_cooldown_s:
        Circuit-breaker tuning for the approximate routes (learned and
        online aggregation): a route whose recent error rate over the last
        ``breaker_window`` attempts reaches one half is skipped for
        ``breaker_cooldown_s`` seconds, then probed
        (half-open) before being trusted again.  The exact route is never
        broken: it is the fallback of last resort.
    trainer_max_restarts, trainer_restart_backoff_s:
        A background training round that raises is retried up to
        ``trainer_max_restarts`` times with exponential backoff starting at
        ``trainer_restart_backoff_s``; when every retry fails the trainer is
        marked dead (visible in :meth:`health`) until a later round
        succeeds.

    Requests without a budget get ``ServiceBudget()`` (best effort: the
    cheapest route, no error requirement).  Spans are opened only under the
    ``span`` a caller passes in; the HTTP front door passes its root.
    """

    def __init__(
        self,
        catalog: Catalog,
        store: SynopsisStore | None = None,
        config: VerdictConfig | None = None,
        sampling: SamplingConfig | None = None,
        cost_model: CostModelConfig | None = None,
        record_queries: bool = True,
        flush_every: int = 8,
        cache_capacity: int = 1_024,
        auto_train_every: int | None = None,
        breaker_window: int = 8,
        breaker_cooldown_s: float = 5.0,
        trainer_max_restarts: int = 3,
        trainer_restart_backoff_s: float = 0.05,
    ):
        if cache_capacity <= 0:
            raise ServiceError("cache_capacity must be positive")
        if auto_train_every is not None and auto_train_every <= 0:
            raise ServiceError("auto_train_every must be positive")
        if trainer_max_restarts < 0:
            raise ServiceError("trainer_max_restarts must be non-negative")
        self.catalog = catalog
        # One scan-accounting stream shared by every engine this service
        # owns: the metrics "scan" view then attributes exactly this
        # service's scans, co-resident services notwithstanding.
        self.scan_counters = ScanCounters()
        self.aqp = OnlineAggregationEngine(
            catalog,
            sampling=sampling,
            cost_model=cost_model,
            scan_counters=self.scan_counters,
        )
        self.engine = VerdictEngine(catalog, self.aqp, config=config)
        self.exact = ExactExecutor(catalog, scan_counters=self.scan_counters)
        self.planner = QueryPlanner(self.engine)
        self.metrics = ServiceMetrics(scan_counters=self.scan_counters)
        self.store = store
        self.multiplier = confidence_multiplier(self.engine.config.confidence)
        self.default_budget = ServiceBudget()
        self.record_queries = record_queries
        self.flush_every = max(flush_every, 1)
        self.cache_capacity = cache_capacity

        self._state = _ServiceState()
        self._cache_lock = threading.Lock()
        # Serialises inference and every mutation of the learned state; see
        # the module docstring for the locking discipline.
        self._engine_lock = threading.Lock()
        self._table_locks: dict[str, ReadWriteLock] = {}
        self._table_locks_guard = threading.Lock()
        # Lifecycle: "serving" -> "draining" (close() in progress; new
        # requests rejected, in-flight ones draining) -> "closed" (final
        # snapshot written).  Guarded by ``_lifecycle`` together with the
        # count of in-flight requests.
        self._phase = "serving"
        self._inflight = 0
        self._lifecycle = threading.Condition()
        # Background training runs on its own single worker, off every
        # request thread.
        self.auto_train_every = auto_train_every
        self._train_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="verdict-train"
        )
        self._train_guard = threading.Lock()
        self._train_future: Future | None = None
        self._mutations_since_train = 0
        self.trainer_max_restarts = trainer_max_restarts
        self.trainer_restart_backoff_s = trainer_restart_backoff_s
        # Circuit breakers for the two approximate routes.  EXACT is never
        # broken (it is the last-resort fallback) and CACHED cannot fail.
        # The transition callback captures the metrics, not ``self``: a
        # service <-> breaker cycle would keep a closed service (engine,
        # catalog, samples) alive until the cycle collector ran.
        metrics = self.metrics

        def count_transition(name: str, old: str, new: str) -> None:
            metrics.record_event(f"breaker.{name}.{new}")

        self._breakers: dict[Route, CircuitBreaker] = {
            route: CircuitBreaker(
                name=route.value,
                window=breaker_window,
                cooldown_s=breaker_cooldown_s,
                on_transition=count_transition,
            )
            for route in (Route.LEARNED, Route.ONLINE_AGG)
        }
        self._declare_metrics()
        self.restored = bool(store is not None and store.load_into(self.engine))
        if store is not None:
            for name, count in store.counters.items():
                if count:
                    self.metrics.record_event(f"store.{name}", count)

    # ------------------------------------------------------------------ public

    def query(
        self,
        sql: Union[str, ast.Query],
        budget: ServiceBudget | None = None,
        record: bool | None = None,
        cancel: CancelToken | None = None,
        span: Span | None = None,
    ) -> ServedAnswer:
        """Answer one request within its budget, via the cheapest able route.

        Thread-safe; may be called from any thread.  Raises
        :class:`ServiceError` when the service is closed and propagates
        parse errors to the caller.  The deadline starts now;
        the sample batch loop and the exact scan's morsel loop poll it and
        ``cancel``.  A traced caller passes its ``span``: the cache lookup,
        plan, route attempts and record open their spans under it.
        """
        budget = budget or self.default_budget
        deadline = Deadline.after(budget.deadline_s) if budget.deadline_s is not None else None
        limits = Limits(deadline, cancel, span)
        with self._request_scope():
            try:
                return self._serve_within_deadline(sql, budget, record, limits)
            except DeadlineExceeded:
                self.metrics.record_event("deadline.exceeded")
                raise
            except QueryCancelled:
                self.metrics.record_event("query.cancelled")
                raise

    def explain(
        self,
        sql: Union[str, ast.Query],
        budget: ServiceBudget | None = None,
    ) -> dict:
        """The planner's full decision record for one request, *unexecuted*.

        Returns plain data mirroring exactly what :meth:`query` would do
        with this budget right now: the candidate-route table (cost/error
        estimates, planning order, per-route reasons), whether the answer
        cache would hit, each breaker's state and the resulting skip
        decisions, and the cost-model inputs (estimated scan rows, sample
        batch rows, synopsis readiness).  Every reason is read from the rule
        :meth:`query` runs: the planner's :meth:`~QueryPlanner.excluded`,
        the breaker's :meth:`~CircuitBreaker.refusal` (without taking a
        half-open probe slot) and :meth:`_cache_lookup` (without evicting
        or promoting) -- EXPLAIN observes, it does not perturb.
        """
        with self._request_scope():
            budget = budget or self.default_budget
            parsed, check = self.engine.check(sql)
            cached = self._cache_lookup(sql, budget, touch=False)
            decisions = self.planner.plan(parsed, check, budget)
            order = {decision.route: index for index, decision in enumerate(decisions)}
            planned = {decision.route: decision for decision in decisions}
            snippets = self.planner.synopsis_snippets_for(parsed.table)

            candidates: list[dict] = [
                {
                    "route": Route.CACHED.value,
                    "planned": cached is not None,
                    "would_attempt": cached is not None,
                    "reason": (
                        "cache holds a current answer within the error budget"
                        if cached is not None
                        else "no current cache entry satisfies the budget"
                    ),
                    # null also for an unbounded (inf) entry: strict JSON.
                    "cached_error_bound": (
                        cached.relative_error_bound
                        if cached is not None and math.isfinite(cached.relative_error_bound)
                        else None
                    ),
                }
            ]
            chosen = Route.CACHED.value if cached is not None else None
            for route in (Route.LEARNED, Route.ONLINE_AGG, Route.EXACT):
                entry: dict = {"route": route.value, "planned": route in planned}
                decision = planned.get(route)
                if decision is None:
                    entry["reason"] = self.planner.excluded(route, parsed, check, budget)
                    entry["would_attempt"] = False
                    candidates.append(entry)
                    continue
                entry.update(decision.as_dict())
                entry["order"] = order[route]
                breaker = self._breakers.get(route)
                skip_reason = None
                if breaker is not None:
                    entry["breaker"] = breaker.snapshot()
                    skip_reason = breaker.refusal(take=False)
                would_attempt = skip_reason is None
                if route is Route.ONLINE_AGG and Route.LEARNED in planned:
                    entry["note"] = (
                        "skipped when the learned route answers: its improved "
                        "bound is never larger (Theorem 1); runs only as the "
                        "fallback for inference errors"
                    )
                entry["would_attempt"] = would_attempt
                if skip_reason is not None:
                    entry["skip_reason"] = skip_reason
                if chosen is None and would_attempt:
                    chosen = route.value
                candidates.append(entry)

            return {
                "sql": parsed.text or (sql if isinstance(sql, str) else ""),
                "table": parsed.table,
                "supported": check.supported,
                "unsupported_reasons": list(check.reasons),
                "budget": {
                    "max_relative_error": budget.max_relative_error,
                    "max_latency_s": budget.max_latency_s,
                    "deadline_s": budget.deadline_s,
                    "requires_exact": budget.requires_exact,
                },
                "candidates": candidates,
                "chosen_route": chosen,
                "cost_model_inputs": {
                    "estimated_exact_rows": self.planner.estimated_exact_rows(parsed),
                    "estimated_first_batch_rows": (
                        self.planner.estimated_first_batch_rows(parsed)
                    ),
                    "synopsis_snippets_for_table": snippets,
                    "confidence": self.engine.config.confidence,
                },
                "versions": {
                    "synopsis": self.engine.synopsis.version,
                    "catalog": self.catalog.catalog_version,
                    "models": self.engine.models_version,
                    "synopsis_size": self.engine.synopsis_size(),
                },
                "cache": {
                    "would_hit": cached is not None,
                    "entries": self.cache_size(),
                },
            }

    def _serve_within_deadline(
        self,
        sql: Union[str, ast.Query],
        budget: ServiceBudget,
        record: bool | None,
        limits: Limits,
    ) -> ServedAnswer:
        started = time.perf_counter()
        # The cache is keyed by the request itself (SQL text or parsed
        # query), checked *before* parsing: a hit costs a dict probe and a
        # version comparison, not a parse.
        with child(limits.span, "cache.lookup") as cache_span:
            answer = self._cache_lookup(sql, budget)
            if cache_span is not None:
                cache_span.set(hit=answer is not None)
        fallback = False
        if answer is None:
            answer, fallback = self._waterfall(sql, budget, record, limits)
        answer = replace(answer, wall_seconds=time.perf_counter() - started)
        if answer.degraded:
            self.metrics.record_event("deadline.degraded")
        self.metrics.observe(
            answer.route.value,
            answer.wall_seconds,
            # A hit does no model work, and the lookup only returns answers
            # within this request's error budget.
            model_seconds=0.0 if answer.from_cache else answer.model_seconds,
            budget_met=answer.from_cache or answer.budget_met,
            fallback=fallback,
        )
        set_attrs(
            limits.span,
            route=answer.route.value,
            error_bound=answer.relative_error_bound,
            model_seconds=answer.model_seconds,
            budget_met=answer.budget_met,
        )
        return answer

    def _waterfall(
        self,
        sql: Union[str, ast.Query],
        budget: ServiceBudget,
        record: bool | None,
        limits: Limits,
    ) -> tuple[ServedAnswer, bool]:
        """Plan, try the routes cheapest first, then record and cache the best.

        Returns the answer (wall time not yet stamped) and whether a cheaper
        route was abandoned on the way to it.
        """
        should_record = self.record_queries if record is None else record
        parsed, check = self.engine.check(sql)
        # One decomposition for every batch inference runs on and the record.
        ask_plan = AskPlan(parsed)
        with child(limits.span, "plan") as plan_span:
            decisions = self.planner.plan(parsed, check, budget)
            if plan_span is not None:
                plan_span.set(
                    supported=check.supported,
                    candidates=[decision.as_dict() for decision in decisions],
                )
        best: ServedAnswer | None = None
        best_raw: AQPAnswer | None = None
        best_versions: tuple[int, int, int] | None = None
        learned_answered = False
        fallback = False
        for decision in decisions:
            if decision.route is Route.ONLINE_AGG and learned_answered:
                # Dominated: the learned route already refined the same raw
                # answers with inference, whose bound is never larger
                # (Theorem 1).  Online aggregation only runs as the fallback
                # when inference itself *errored*.
                event(
                    limits.span,
                    "route.skip",
                    route=decision.route.value,
                    reason="dominated by the learned answer (Theorem 1)",
                )
                continue
            if (
                best is not None
                and budget.max_latency_s is not None
                and decision.estimated_seconds > budget.max_latency_s
            ):
                # Escalating would blow the latency budget; keep best effort.
                event(
                    limits.span,
                    "route.skip",
                    route=decision.route.value,
                    reason="estimated cost exceeds the latency budget",
                    estimated_seconds=decision.estimated_seconds,
                )
                continue
            breaker = self._breakers.get(decision.route)
            refusal = breaker.refusal(take=True) if breaker is not None else None
            if refusal is not None:
                # The breaker is open (or half-open with its probes taken):
                # skip straight to the fallback instead of paying for
                # another failure.
                self.metrics.record_event(f"breaker.{decision.route.value}.skip")
                event(limits.span, "route.skip", route=decision.route.value, reason=refusal)
                fallback = True
                continue
            try:
                with child(
                    limits.span,
                    f"route.{decision.route.value}",
                    predicted_seconds=decision.estimated_seconds,
                    predicted_rows=decision.estimated_rows,
                    predicted_error=decision.estimated_error,
                ) as route_span:
                    candidate, raw, versions = self._execute_route(
                        decision, parsed, check, budget, limits.under(route_span), ask_plan
                    )
                    if route_span is not None:
                        route_span.set(
                            observed_seconds=candidate.model_seconds,
                            observed_error=candidate.relative_error_bound,
                            batches=candidate.batches_processed,
                            degraded=candidate.degraded,
                        )
            except DeadlineExceeded:
                if breaker is not None:
                    # The client's clock ran out; that says nothing about
                    # the route's health, so release the attempt unrecorded.
                    breaker.cancel()
                if best is None:
                    raise
                best = replace(
                    best,
                    degraded=True,
                    degraded_reason=(
                        f"deadline of {budget.deadline_s:g}s expired before the "
                        "error budget was met"
                        if budget.deadline_s is not None
                        else "deadline expired before the error budget was met"
                    ),
                )
                break
            except QueryCancelled:
                if breaker is not None:
                    # Cancellation says nothing about the route's health.
                    breaker.cancel()
                # Never degrade to a partial: nobody is listening.  The
                # abort happens before _record/_cache_store, so the answer
                # cache, store, and metrics stay consistent.
                raise
            except (SchemaError, ExpressionError):
                if breaker is not None:
                    # A missing column or a string-vs-number ordering is the
                    # client's query, which every route would fail alike:
                    # release the attempt unrecorded and do not fall back.
                    breaker.cancel()
                raise
            except ReproError:
                if breaker is not None:
                    breaker.record_failure()
                self.metrics.record_event(f"route.{decision.route.value}.error")
                fallback = True
                continue
            if breaker is not None:
                breaker.record_success()
            if decision.route is Route.LEARNED:
                learned_answered = True
            if best is None or candidate.relative_error_bound < best.relative_error_bound:
                best, best_raw, best_versions = candidate, raw, versions
            if budget.error_met(candidate.relative_error_bound):
                break
            fallback = True
        if best is None or best_versions is None:
            raise ServiceError(f"no route could answer {parsed.text or sql!r}")

        if best.degraded:
            # The deadline cut refinement short: return the partial estimate
            # immediately -- no recording (it would spend time the client no
            # longer has) and no caching (the answer is deliberately
            # under-refined).
            return replace(best, budget_met=False), fallback
        budget_met = budget.error_met(best.relative_error_bound) and (
            budget.max_latency_s is None or best.model_seconds <= budget.max_latency_s
        )
        recorded = False
        cache_versions = best_versions
        if should_record and check.supported and best_raw is not None:
            with child(limits.span, "record") as record_span:
                recorded, pre_version, post_versions = self._record(
                    parsed, best_raw, ask_plan
                )
                if record_span is not None:
                    record_span.set(recorded=recorded)
            if recorded and (pre_version, post_versions[1], post_versions[2]) == best_versions:
                # Recording this answer's own snippets is the only mutation
                # since execution, and it does not invalidate the answer:
                # stamp the entry with the post-record versions so repeats
                # hit.  Any *interleaved* mutation leaves the execution-time
                # stamp in place, making the entry born-stale (never served).
                cache_versions = post_versions
        answer = replace(best, budget_met=budget_met, recorded=recorded)
        self._cache_store(sql, answer, cache_versions)
        return answer, fallback

    def append(self, table_name: str, appended: Table, adjust: bool = True) -> int:
        """Append tuples to a fact table with exclusive access (Appendix D).

        Blocks until in-flight reads of the table drain; returns the number
        of synopsis snippets adjusted.
        """
        with self._request_scope():
            with self._table_lock(table_name).write():
                with self._engine_lock:
                    adjusted = self.engine.register_append(
                        table_name, appended, adjust=adjust
                    )
            self._note_mutation()
            return adjusted

    def train(self, learn: bool | None = None) -> None:
        """Run the offline step (Algorithm 1) on the calling thread.

        Holds the engine lock for the whole round, as :meth:`train_async`
        holds it for its snapshot and swap: requests that need no engine
        lock (exact and cached answers, plain online aggregation) keep
        completing, while inference, records and appends wait for the
        round.  Prefer :meth:`train_async` on a serving path: it learns
        off the request path and holds the engine lock only briefly.
        """
        with self._request_scope():
            with self._engine_lock:
                self.engine.train(learn)
            self._training_done()

    def train_async(self, learn: bool | None = None) -> Future:
        """Run the offline step in a background worker; returns a ``Future``.

        The expensive O(n^3) likelihood optimisation and covariance
        factorisation run on a snapshot of the synopsis *without holding any
        lock*, so concurrent queries (including ones that record new
        snippets) are never blocked behind training.  The engine lock is
        held only twice, briefly: once to capture the snapshot and once to
        swap the learned models and refreshed factorisations in atomically
        -- a query observes either the pre-train state or the post-train
        state, never a mixture.  Snippets recorded while training ran are
        reconciled by the engine's usual rank-k factor extension; a round
        invalidated by an interleaved append adjustment simply leaves those
        factorisations to rebuild lazily.

        At most one background round is in flight: calling again while one
        runs returns the same ``Future``.  The future resolves to the
        learned-parameters mapping that :meth:`VerdictEngine.train` returns.
        """
        if self._phase != "serving":
            raise ServiceError("service is closed")
        with self._train_guard:
            future = self._train_future
            if future is not None and not future.done():
                return future
            future = self._train_pool.submit(self._train_in_background, learn)
            self._train_future = future
            return future

    def _train_in_background(self, learn: bool | None):
        """One background round, retried with backoff when it crashes.

        A training crash (numerical blow-up on a degenerate synopsis, an
        injected fault) must not silently end continuous learning: the round
        is retried up to ``trainer_max_restarts`` times with exponential
        backoff, and only when every retry fails is the trainer marked dead
        -- which :meth:`health` reports so operators (and the HTTP
        ``/v1/healthz`` endpoint) can see learning has stopped.  A later
        successful round (e.g. a manual :meth:`train_async`) revives it.
        """
        attempt = 0
        while True:
            try:
                faults.inject("service.train", attempt=attempt)
                results = self._train_round(learn)
            except Exception:
                attempt += 1
                if attempt > self.trainer_max_restarts:
                    self._trainer_dead.set(to=1)
                    self.metrics.record_event("trainer.dead")
                    raise
                self.metrics.record_event("trainer.restart")
                time.sleep(self.trainer_restart_backoff_s * (2 ** (attempt - 1)))
            else:
                self._trainer_dead.set(to=0)
                return results

    def _train_round(self, learn: bool | None):
        learn_flag = (
            self.engine.config.learn_length_scales if learn is None else learn
        )
        with self._engine_lock:
            if self.engine.training_current(learn_flag):
                return self.engine.train(learn_flag)
            snapshot = self.engine.training_snapshot(learn_flag)
        outcome = self.engine.compute_training(snapshot)  # no locks held
        with self._engine_lock:
            results = self.engine.apply_training(outcome)
        self._training_done()
        return results

    def _training_done(self) -> None:
        # A completed round resets the auto-train mutation counter -- the
        # counter means "mutations since the last training", whichever path
        # performed it.
        with self._cache_lock:
            self._mutations_since_train = 0
        self._note_mutation(count_towards_training=False)

    def record_answer(self, sql: Union[str, ast.Query], span: Span | None = None) -> bool:
        """Run a query to completion and record its snippets (training aid).

        Unlike :meth:`query`, the full sample is always scanned so the
        recorded snippets carry the tightest raw errors -- this is what the
        trace-ingestion phase of the experiments uses.  A traced caller
        passes its ``span``; the sample scan opens its span under it.
        """
        with self._request_scope():
            parsed, check = self.engine.check(sql)
            if not check.supported:
                return False
            with self._table_lock(parsed.table).read():
                raw = self.aqp.final_answer(parsed, Limits(span=span))
            recorded, _, _ = self._record(parsed, raw)
            return recorded

    def flush(self) -> str:
        """Flush learned state to the store (``"noop"`` without a store).

        After :meth:`close` has written the final snapshot this is a no-op:
        nothing may be persisted *behind* the snapshot that defines the
        restart state.
        """
        if self.store is None:
            return "noop"
        with self._lifecycle:
            if self._phase == "closed":
                return "noop"
        with self._engine_lock:
            faults.inject("service.flush")
            return self.store.flush(self.engine)

    def snapshot(self) -> str:
        """Force a full store snapshot now (``"noop"`` without a store).

        Unlike :meth:`flush` this always writes a complete snapshot (with
        prepared factorisations), making the current learned state durable
        regardless of what kind of mutations preceded it -- the admin
        ``snapshot`` endpoint of the HTTP front door calls this.
        """
        if self.store is None:
            return "noop"
        with self._lifecycle:
            if self._phase == "closed":
                return "noop"
        with self._engine_lock:
            return self.store.save_snapshot(self.engine)

    def replicate_deltas(self, lines: list[str]) -> list[dict]:
        """Apply leader-shipped WAL records verbatim (follower side).

        Each line is a complete CRC'd delta record as it appears in the
        leader's log; the store appends it byte-for-byte and applies its
        snippets through the same restore path a restart uses, so the
        follower's state is byte-identical to the leader's by construction.
        Cached answers need no explicit invalidation: cache entries are
        stamped with the synopsis version, which every applied record
        advances.
        """
        if self.store is None:
            raise ServiceError("cannot apply replication without a store")
        results = []
        with self._request_scope():
            with self._engine_lock:
                for line in lines:
                    results.append(self.store.ship_append(self.engine, line))
        if results:
            self.metrics.record_event("replication.apply", len(results))
        return results

    def replicate_snapshot(self, document: str) -> dict:
        """Install a leader-shipped snapshot, replacing all local state."""
        if self.store is None:
            raise ServiceError("cannot apply replication without a store")
        with self._request_scope():
            with self._engine_lock:
                applied = self.store.install_shipped_snapshot(self.engine, document)
        self.metrics.record_event("replication.bootstrap")
        return applied

    def close(self) -> None:
        """Graceful shutdown: drain all work, then snapshot the learned state.

        The ordering is explicit (see the module docstring): reject new
        requests, drain the in-flight ones, drain the background trainer,
        and only then write the final snapshot.  The final write is always
        a *full snapshot* (not a delta): it captures the prepared
        factorisations bit-for-bit, which is what makes a restarted service
        answer byte-identically to one that never stopped.

        Safe to call from many threads: exactly one closer performs the
        shutdown, and every other ``close()`` blocks until the snapshot is
        durable -- so "close returned" always means "state persisted".
        """
        with self._lifecycle:
            if self._phase != "serving":
                while self._phase != "closed":
                    self._lifecycle.wait()
                return
            self._phase = "draining"
        with self._lifecycle:
            while self._inflight:
                self._lifecycle.wait()
        # Let an in-flight background training round finish (its swap is
        # cheap) so the shutdown snapshot captures what it learned.  Must
        # happen after the request drain: requests can kick off auto-train
        # rounds, never the other way around.
        self._train_pool.shutdown(wait=True)
        if self.store is not None:
            with self._engine_lock:
                self.store.save_snapshot(self.engine)
        with self._lifecycle:
            self._phase = "closed"
            self._lifecycle.notify_all()

    def __enter__(self) -> "VerdictService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether the service has stopped accepting requests."""
        return self._phase != "serving"

    @property
    def lifecycle_phase(self) -> str:
        """The shutdown phase: ``"serving"``, ``"draining"``, or ``"closed"``."""
        return self._phase

    def cache_size(self) -> int:
        with self._cache_lock:
            return len(self._state.cache)

    def health(self) -> dict:
        """Liveness/readiness summary: ``ok`` or ``degraded`` plus reasons.

        Degraded means the service still answers requests but some part of
        the stack is impaired: a route breaker is open, the store had to
        quarantine a corrupt snapshot, or the background trainer died.  The
        HTTP front door aggregates this per tenant into ``/v1/healthz``.
        """
        reasons: list[str] = []
        if self._phase != "serving":
            reasons.append(f"service is {self._phase}")
        if self.store is not None and self.store.quarantined:
            reasons.append("store quarantined a corrupt snapshot")
        for route, breaker in self._breakers.items():
            state = breaker.state
            if state != "closed":
                reasons.append(f"{route.value} route breaker is {state}")
        if self._trainer_dead.value():
            reasons.append(
                "background trainer dead after "
                f"{self.metrics.event_count('trainer.restart')} restart(s)"
            )
        return {
            "status": "ok" if not reasons else "degraded",
            "phase": self._phase,
            "reasons": reasons,
        }

    def observability(self) -> dict:
        """Metrics plus robustness state (breakers, trainer, store recovery)."""
        data = self.metrics.as_dict()
        data["breakers"] = {
            route.value: breaker.snapshot()
            for route, breaker in self._breakers.items()
        }
        data["trainer"] = {
            "restarts": self.metrics.event_count("trainer.restart"),
            "dead": bool(self._trainer_dead.value()),
        }
        if self.store is not None:
            data["store"] = self.store.state_snapshot()
        return data

    #: Breaker states as gauge values (Prometheus cannot carry strings).
    _BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}

    def _declare_metrics(self) -> None:
        """Declare what :meth:`observability` reports beyond the route counters.

        Breaker state, trainer liveness, answer-cache residency and the
        store's counters live in their own objects and are read at scrape
        time.  The callbacks capture those objects, never ``self``: a cycle
        through the service would keep a closed service (engine, catalog,
        samples) alive until the cycle collector ran.  ``_trainer_dead`` is
        the one gauge the service sets itself.
        """
        registry = self.metrics.registry
        breakers, state, store = self._breakers, self._state, self.store
        events = self.metrics.events
        states = self._BREAKER_STATE_VALUES
        registry.gauge(
            "verdict_breaker_state",
            "Route circuit-breaker state (0=closed, 1=half_open, 2=open).",
            ("route",),
            fn=lambda: {
                route.value: states.get(breaker.snapshot()["state"], 0)
                for route, breaker in breakers.items()
            },
        )
        registry.counter(
            "verdict_breaker_transitions_total",
            "Circuit-breaker state transitions, by route.",
            ("route",),
            fn=lambda: {
                route.value: breaker.snapshot()["transitions"]
                for route, breaker in breakers.items()
            },
        )
        registry.counter(
            "verdict_trainer_restarts_total",
            "Background-trainer crash restarts.",
            fn=lambda: events.value("trainer.restart"),
        )
        self._trainer_dead = registry.gauge(
            "verdict_trainer_dead",
            "1 when the background trainer exhausted its restarts.",
        )
        registry.gauge(
            "verdict_cache_entries",
            "Answer-cache entries resident.",
            fn=lambda: len(state.cache),
        )
        if store is None:
            return
        registry.counter(
            "verdict_store_events_total",
            "Synopsis-store recovery and maintenance events, by kind.",
            ("event",),
            fn=lambda: store.counters
            | {
                "snapshots_written": store.snapshots_written,
                "deltas_written": store.deltas_written,
                "factor_events_written": store.factor_events_written,
            },
        )
        registry.gauge(
            "verdict_store_quarantined",
            "1 when the store quarantined a corrupt snapshot.",
            fn=lambda: int(store.quarantined),
        )
        registry.gauge(
            "verdict_store_snapshot_bytes",
            "Size of the last snapshot the store wrote or loaded, in bytes.",
            fn=lambda: store.snapshot_bytes,
        )

    # -------------------------------------------------------------- lifecycle

    @contextmanager
    def _request_scope(self) -> Iterator[None]:
        """Count one request in flight; reject it unless serving.

        :meth:`close` drains these before the final snapshot, so a request
        that got past this gate always runs against a live engine and its
        mutations are always captured by the shutdown snapshot.
        """
        with self._lifecycle:
            if self._phase != "serving":
                raise ServiceError("service is closed")
            self._inflight += 1
        try:
            yield
        finally:
            with self._lifecycle:
                self._inflight -= 1
                if not self._inflight:
                    self._lifecycle.notify_all()

    # ------------------------------------------------------------------ routes

    def _execute_route(
        self,
        decision: RouteDecision,
        parsed: ast.Query,
        check: CheckResult,
        budget: ServiceBudget,
        limits: Limits,
        plan: AskPlan,
    ) -> tuple[ServedAnswer, AQPAnswer | None, tuple[int, int, int]]:
        """Run one route; returns (answer, raw, versions-at-execution).

        The (synopsis, catalog, models) version triple is captured while the
        table read lock is still held, so it is consistent with the state
        the answer was computed over -- a mutation racing in after the lock
        is released cannot tag this answer as fresher than it is.
        """
        faults.inject(f"service.route.{decision.route.value}", table=parsed.table)
        raw: AQPAnswer | None = None
        cut = ""
        with self._table_lock(parsed.table).read():
            if decision.route is Route.EXACT:
                result = self.exact.execute(parsed, limits)
                models_version = None
                rows = tuple(
                    ServedRow(
                        group_values=row.group_values,
                        values=dict(row.aggregates),
                        errors=dict.fromkeys(row.aggregates, 0.0),
                    )
                    for row in result.rows
                )
                bound, model_seconds = 0.0, decision.estimated_seconds
            else:
                estimate, raw, models_version, cut = self._run_sampled(
                    decision.route, parsed, check, budget, limits, plan
                )
                rows = tuple(
                    ServedRow(
                        group_values=row.group_values,
                        values={name: est.value for name, est in row.estimates.items()},
                        errors={
                            name: self.multiplier * est.error
                            for name, est in row.estimates.items()
                        },
                    )
                    for row in estimate.rows
                )
                bound = estimate.mean_relative_error_bound(self.multiplier)
                # The cost model's charge for the batches read; a learned
                # estimate's elapsed_seconds adds measured inference time.
                model_seconds = raw.elapsed_seconds
            versions = self._versions()
            if models_version is not None:
                # A learned answer carries the models version it was
                # inferred under; no other route depends on the models.
                versions = (*versions[:2], models_version)
        answer = ServedAnswer(
            sql=parsed.text or "",
            route=decision.route,
            rows=rows,
            relative_error_bound=bound,
            model_seconds=model_seconds,
            wall_seconds=0.0,
            supported=check.supported,
            batches_processed=raw.batches_processed if raw is not None else 0,
            degraded=bool(cut),
            degraded_reason=cut,
        )
        return answer, raw, versions

    def _run_sampled(
        self,
        route: Route,
        parsed: ast.Query,
        check: CheckResult,
        budget: ServiceBudget,
        limits: Limits,
        plan: AskPlan,
    ) -> tuple[Union[AQPAnswer, VerdictAnswer], AQPAnswer, int | None, str]:
        """Online aggregation, plus one inference step per batch when learned.

        Returns ``(estimate, last raw batch, models version, degraded
        reason)``; the models version is ``None`` off the learned route.
        Refinement stops at the first batch that meets the error budget (with
        no error budget, the first batch), reaches the latency budget, or
        provably cannot reach the error budget on the full sample.  A
        deadline expiring after at least one batch cuts the loop: the last
        estimate is still valid ± its error, so it is returned with a
        degraded reason rather than discarded.
        """
        estimate: Union[AQPAnswer, VerdictAnswer, None] = None
        raw: AQPAnswer | None = None
        models_version: int | None = None
        try:
            for raw in self.aqp.run(parsed, limits):
                estimate = raw
                if route is Route.LEARNED:
                    # Background training swaps the models under the engine
                    # lock alone (no table lock), so the models version this
                    # answer depends on is read inside the lock inference
                    # ran under -- reading it later could tag a pre-train
                    # answer as post-train.
                    with self._engine_lock:
                        estimate = self.engine.process_answer(
                            parsed, raw, check, limits.span, plan=plan
                        )
                        models_version = self.engine.models_version
                bound = estimate.mean_relative_error_bound(self.multiplier)
                if (
                    budget.max_relative_error is None
                    or bound <= budget.max_relative_error
                    or (
                        budget.max_latency_s is not None
                        and raw.elapsed_seconds >= budget.max_latency_s
                    )
                    or budget_hopeless(raw, bound, budget.max_relative_error)
                ):
                    break
        except DeadlineExceeded:
            if estimate is None or raw is None:
                raise
            cut = f"deadline expired after {raw.batches_processed} sample batch(es)"
            return estimate, raw, models_version, cut
        if estimate is None or raw is None:
            raise ServiceError("online aggregation produced no answers")
        return estimate, raw, models_version, ""

    # ----------------------------------------------------------------- writes

    def _record(
        self, parsed: ast.Query, raw: AQPAnswer, plan: AskPlan | None = None
    ) -> tuple[bool, int, tuple[int, int, int]]:
        """Record a raw answer's snippets; returns version bookkeeping.

        ``plan`` is the ask's :class:`AskPlan`, whose decomposition the
        record reuses (it rebuilds itself if an append moved the domains).

        The return value is ``(recorded, synopsis version immediately before
        the record, (synopsis, catalog, models) versions immediately
        after)`` -- the caller uses it to decide whether its own record was
        the *only* mutation since it executed (and its cache entry may carry
        the post-record stamp) or something else interleaved.
        """
        with self._table_lock(parsed.table).write():
            with self._engine_lock:
                pre_version = self.engine.synopsis.version
                added = self.engine.record(parsed, raw, plan=plan)
                post_versions = self._versions()
        if added:
            self._note_mutation()
        return added > 0, pre_version, post_versions

    def _note_mutation(self, count_towards_training: bool = True) -> None:
        should_flush = False
        should_train = False
        with self._cache_lock:
            if self.store is not None:
                self._state.mutations_since_flush += 1
                should_flush = self._state.mutations_since_flush >= self.flush_every
                if should_flush:
                    self._state.mutations_since_flush = 0
            if count_towards_training and self.auto_train_every is not None:
                self._mutations_since_train += 1
                should_train = self._mutations_since_train >= self.auto_train_every
                if should_train:
                    self._mutations_since_train = 0
        if should_flush:
            try:
                self.flush()
            except (ReproError, OSError):
                # A failed periodic flush must not fail the request that
                # triggered it: the learned state simply stays dirty and the
                # next mutation retries.  Counted so operators see it.
                self.metrics.record_event("flush.error")
        if should_train:
            try:
                self.train_async()
            except (ServiceError, RuntimeError):
                # Lost the race with close(): the request that triggered the
                # auto-train already has its answer, and a closing service
                # has no use for another round.
                pass

    # ------------------------------------------------------------------- cache

    def _versions(self) -> tuple[int, int, int]:
        """The current (synopsis, catalog, models) versions.

        Answers are stamped with this triple when computed and a cache entry
        is current only while it still matches.
        """
        return (
            self.engine.synopsis.version,
            self.catalog.catalog_version,
            self.engine.models_version,
        )

    def _cache_lookup(
        self, request: Union[str, ast.Query], budget: ServiceBudget, touch: bool = True
    ) -> ServedAnswer | None:
        """The current cache entry for ``request`` within ``budget``, if any.

        Serving lookups ``touch`` the cache: a stale entry is evicted and a
        hit is promoted in the LRU order.  EXPLAIN passes ``touch=False``
        and leaves the cache exactly as it found it.
        """
        with self._cache_lock:
            entry: _CacheEntry | None = self._state.cache.get(request)
            if entry is None:
                return None
            if entry.versions != self._versions():
                if touch:
                    del self._state.cache[request]
                return None
            if not budget.error_met(entry.answer.relative_error_bound):
                return None
            if touch:
                self._state.cache.move_to_end(request)
            return entry.answer

    def _cache_store(
        self,
        request: Union[str, ast.Query],
        answer: ServedAnswer,
        versions: tuple[int, int, int],
    ) -> None:
        """Store an answer, as its hits serve it, stamped with its versions.

        ``versions`` must be captured at execution (or post-own-record) time,
        never read here: a mutation racing in between execution and this call
        would otherwise stamp a pre-mutation answer as current.
        """
        hit = replace(answer, route=Route.CACHED, from_cache=True, recorded=False)
        with self._cache_lock:
            self._state.cache[request] = _CacheEntry(answer=hit, versions=versions)
            self._state.cache.move_to_end(request)
            while len(self._state.cache) > self.cache_capacity:
                self._state.cache.popitem(last=False)

    # ------------------------------------------------------------------- locks

    def _table_lock(self, table_name: str) -> ReadWriteLock:
        with self._table_locks_guard:
            lock = self._table_locks.get(table_name)
            if lock is None:
                lock = ReadWriteLock()
                self._table_locks[table_name] = lock
            return lock
