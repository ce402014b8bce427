"""The Verdict engine: database learning on top of an off-the-shelf AQP engine.

The engine implements the workflow of Figure 2 and Algorithms 1 / 2:

1. an incoming query is checked against the supported class (Section 2.2);
   unsupported queries bypass inference and the raw AQP answer is returned;
2. supported queries are sent to the AQP engine, which returns raw answers
   and raw errors (for online aggregation, a sequence of them);
3. each raw answer is decomposed into internal snippets (AVG(A_k) and
   FREQ(*), Section 2.3), the maximum-entropy inference of Section 3 produces
   model-based answers/errors for up to ``N_max`` snippets, the model
   validation of Appendix B accepts or rejects each of them, and the improved
   user-facing aggregates are recombined (AVG directly, COUNT from FREQ, SUM
   from AVG x COUNT);
4. once the query finishes, its raw snippets are added to the query synopsis
   (bounded per aggregate function, LRU-evicted);
5. the offline step (:meth:`VerdictEngine.train`) learns correlation
   parameters from the synopsis and refreshes the precomputed covariance
   factorisations.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.aqp.time_bound import TimeBoundEngine
from repro.aqp.types import (
    AggregateEstimate,
    AQPAnswer,
    AQPRow,
    mean_relative_error_bound,
    relative_error_bound,
)
from repro.config import VerdictConfig
from repro.core.append import (
    ColumnMoments,
    adjustment_from_moments,
    apply_append_adjustment,
)
from repro.core.covariance import AggregateModel, SnippetCovariance
from repro.core.inference import GaussianInference, PreparedInference
from repro.core.learning import LearnedParameters, learn_length_scales
from repro.core.prior import estimate_prior
from repro.core.regions import AttributeDomains, Region, RegionBuilder
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.core.synopsis import QuerySynopsis
from repro.core.validation import validate_model_answer
from repro.db.catalog import Catalog
from repro.db.table import Table
from repro.errors import ReproError
from repro.obs.trace import span as obs_span
from repro.sqlparser import ast
from repro.sqlparser.checker import CheckResult, QueryTypeChecker
from repro.sqlparser.decompose import SnippetSpec, decompose_query
from repro.sqlparser.parser import parse_query

Value = Union[int, float, str]

# Factor events the engine remembers for a persistent store to log; beyond
# this the oldest are trimmed and a store that still needed them snapshots.
_FACTOR_SCHEDULE_LIMIT = 1_024


# --------------------------------------------------------------------------- #
# Answer types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ImprovedEstimate:
    """Improved answer/error for one aggregate of one output row."""

    name: str
    function: ast.AggregateFunction
    value: float
    error: float
    raw_value: float
    raw_error: float
    improved: bool
    validation_reason: str = ""

    def error_bound(self, multiplier: float) -> float:
        return multiplier * self.error

    def relative_error_bound(self, multiplier: float) -> float:
        return relative_error_bound(self.value, self.error, multiplier)


@dataclass(frozen=True)
class VerdictRow:
    """One output row of an improved answer."""

    group_values: tuple[Value, ...]
    estimates: dict[str, ImprovedEstimate]

    def estimate(self, name: str) -> ImprovedEstimate:
        return self.estimates[name]


@dataclass
class VerdictAnswer:
    """Verdict's improved answer wrapping one raw AQP answer."""

    query: ast.Query
    raw: AQPAnswer
    rows: list[VerdictRow]
    supported: bool
    unsupported_reasons: tuple[str, ...]
    overhead_seconds: float

    @property
    def group_columns(self) -> tuple[str, ...]:
        return self.raw.group_columns

    @property
    def aggregate_names(self) -> tuple[str, ...]:
        return self.raw.aggregate_names

    @property
    def elapsed_seconds(self) -> float:
        """Model time of the raw answer plus Verdict's inference overhead."""
        return self.raw.elapsed_seconds + self.overhead_seconds

    def by_group(self) -> dict[tuple[Value, ...], VerdictRow]:
        return {row.group_values: row for row in self.rows}

    def scalar_estimate(self) -> ImprovedEstimate:
        if len(self.rows) != 1 or len(self.aggregate_names) != 1:
            raise ValueError("scalar_estimate() requires a single-cell answer")
        return self.rows[0].estimates[self.aggregate_names[0]]

    def mean_relative_error_bound(self, multiplier: float) -> float:
        return mean_relative_error_bound(self.rows, multiplier)

    def improvement_count(self) -> int:
        """How many cells Verdict actually improved (validation accepted)."""
        return sum(
            1
            for row in self.rows
            for estimate in row.estimates.values()
            if estimate.improved
        )


@dataclass
class _CellPlan:
    """Internal bookkeeping for one (row, aggregate) cell to improve."""

    row_index: int
    name: str
    function: ast.AggregateFunction
    raw: AggregateEstimate
    avg_snippet: Snippet | None = None
    freq_snippet: Snippet | None = None


# --------------------------------------------------------------------------- #
# Training phases
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _TrainingEntry:
    """One aggregate function's immutable inputs to a training round."""

    key: SnippetKey
    snippets: tuple[Snippet, ...]
    domains: AttributeDomains
    warm_start: dict[str, float] | None


@dataclass(frozen=True)
class TrainingSnapshot:
    """Everything :meth:`VerdictEngine.compute_training` needs, captured
    atomically.

    Snippets are immutable and the lists are copies, so once the snapshot is
    taken the expensive compute phase can run without any lock on the engine
    -- this is what lets :class:`repro.serve.service.VerdictService` learn in
    a background worker while queries keep flowing.
    """

    learn: bool
    synopsis_version: int
    catalog_version: int
    training_rounds: int
    entries: tuple[_TrainingEntry, ...]


@dataclass(frozen=True)
class TrainingOutcome:
    """Learned parameters and refreshed factorisations for one snapshot."""

    learn: bool
    synopsis_version: int
    catalog_version: int
    training_rounds: int
    results: dict[SnippetKey, LearnedParameters]
    prepared: dict[SnippetKey, PreparedInference]


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #


class VerdictEngine:
    """Database learning on top of a black-box AQP engine (Figure 2)."""

    def __init__(
        self,
        catalog: Catalog,
        aqp_engine: OnlineAggregationEngine,
        config: VerdictConfig | None = None,
        time_bound_engine: TimeBoundEngine | None = None,
    ):
        self.catalog = catalog
        self.aqp = aqp_engine
        self.config = config or VerdictConfig()
        self.time_bound = time_bound_engine
        self.checker = QueryTypeChecker()
        self.synopsis = QuerySynopsis(capacity_per_key=self.config.max_snippets_per_aggregate)
        self.inference = GaussianInference(self.config)
        self._models: dict[SnippetKey, AggregateModel] = {}
        self._prepared: dict[SnippetKey, PreparedInference] = {}
        self._domains_cache: dict[str, AttributeDomains] = {}
        self.queries_processed = 0
        self.queries_improved = 0
        self.total_overhead_seconds = 0.0
        # Bumped on learned-state mutations the synopsis version alone cannot
        # express.  Each bump is either a *factor event* -- ``_prepared_for``
        # materialised, rank-k extended, re-stamped or dropped one
        # factorisation, a deterministic function of the snippets, the models
        # and the synopsis version it ran at, so the persistent store logs
        # ``(key, version)`` and replay re-runs it to the same floating-point
        # bits -- or a *barrier* (training, model override, data-append
        # adjustment, domain invalidation), which the log cannot replay and
        # the store answers with a full snapshot.
        self.state_epoch = 0
        # The factor schedule: (state epoch after the event, key, synopsis
        # version) of every factor event since the last barrier, oldest
        # first.  Bounded like the synopsis change log: events at or below
        # the floor are gone and :meth:`factor_events_since` reports them as
        # unknown.
        self._factor_events: deque[tuple[int, SnippetKey, int]] = deque()
        self._factor_floor = 0
        # Warm-start / skip bookkeeping for the offline step: the full
        # results of the last applied training round, and the (learn flag,
        # synopsis version, state epoch) stamp it is valid for.
        self._learned: dict[SnippetKey, LearnedParameters] = {}
        self._last_training: dict[SnippetKey, LearnedParameters] | None = None
        self._trained_marker: tuple[bool, int, int] | None = None
        # Count of applied training rounds; a snapshot remembers it so a
        # slow round can detect that another round applied while it computed.
        self._training_rounds = 0
        # Bumped only when the correlation *models* change (training applied,
        # or an explicit override) -- unlike state_epoch, which also moves on
        # factor materialisation.  The serving layer keys its answer cache on
        # this, so retraining retires cached answers without a lazy factor
        # rebuild evicting everything.
        self.models_version = 0

    # ----------------------------------------------------------------- domains

    def domains_for(self, fact_table: str) -> AttributeDomains:
        """Attribute domains of a fact table and its FK-joined dimensions."""
        if fact_table not in self._domains_cache:
            self._domains_cache[fact_table] = self._build_domains(fact_table)
        return self._domains_cache[fact_table]

    def _build_domains(self, fact_table: str) -> AttributeDomains:
        """Domains of the fact table plus every transitively FK-joined dimension.

        Snowflake-style chains (e.g. lineitem -> orders -> customer) are
        followed so that predicates on any reachable dimension attribute can
        be represented as region constraints rather than residual filters.
        """
        domains = AttributeDomains.from_table(self.catalog.table(fact_table))
        visited = {fact_table}
        frontier = [fact_table]
        while frontier:
            current = frontier.pop()
            for foreign_key in self.catalog.foreign_keys(current):
                dimension_name = foreign_key.dimension_table
                if dimension_name in visited:
                    continue
                visited.add(dimension_name)
                frontier.append(dimension_name)
                dimension = self.catalog.table(dimension_name)
                domains = domains.merged_with(AttributeDomains.from_table(dimension))
        return domains

    def invalidate_domains(self, fact_table: str | None = None) -> None:
        if fact_table is None:
            self._domains_cache.clear()
        else:
            self._domains_cache.pop(fact_table, None)
        if self._prepared:
            self._factor_barrier()
        self._prepared.clear()

    # ------------------------------------------------------------------- query

    def check(self, query: Union[str, ast.Query]) -> tuple[ast.Query, CheckResult]:
        """Parse (if needed) and type-check a query."""
        parsed = parse_query(query) if isinstance(query, str) else query
        return parsed, self.checker.check(parsed)

    def run(self, query: Union[str, ast.Query]) -> Iterator[VerdictAnswer]:
        """Yield improved answers, one per raw answer of the AQP engine.

        The synopsis is *not* updated; callers that want learning should use
        :meth:`execute` or call :meth:`record` with the final raw answer.

        Parameters
        ----------
        query:
            SQL text or an already-parsed :class:`repro.sqlparser.ast.Query`.

        Yields
        ------
        One :class:`VerdictAnswer` per raw (online-aggregation batch) answer;
        unsupported queries yield pass-through answers with
        ``supported=False``.

        Raises
        ------
        repro.errors.SQLSyntaxError
            If ``query`` is SQL text that does not parse.
        repro.errors.AQPError
            If the underlying AQP engine cannot answer the query (for
            example an unknown table).
        """
        parsed, check = self.check(query)
        for raw in self.aqp.run(parsed):
            yield self.process_answer(parsed, raw, check)

    def execute(
        self,
        query: Union[str, ast.Query],
        max_batches: int | None = None,
        record: bool = True,
    ) -> list[VerdictAnswer]:
        """Run a query through the AQP engine, improving every raw answer.

        Online aggregation stops once ``max_batches`` have been processed.
        The final raw answer's snippets are added to the synopsis when
        ``record`` is True and the query is supported.

        Parameters
        ----------
        query:
            SQL text or an already-parsed :class:`repro.sqlparser.ast.Query`.
        max_batches:
            Optional cap on the number of online-aggregation batches.
        record:
            Whether the final raw answer's snippets are added to the query
            synopsis (step 4 of Figure 2).  Recording is skipped for
            unsupported queries regardless of this flag.

        Returns
        -------
        The list of improved answers, one per processed batch, in order.

        Raises
        ------
        repro.errors.SQLSyntaxError
            If ``query`` is SQL text that does not parse.
        repro.errors.AQPError
            If the underlying AQP engine cannot answer the query.
        """
        parsed, check = self.check(query)
        answers: list[VerdictAnswer] = []
        for raw in self.aqp.run(parsed):
            answer = self.process_answer(parsed, raw, check)
            answers.append(answer)
            if max_batches is not None and raw.batches_processed >= max_batches:
                break
        if record and answers and check.supported:
            self.record(parsed, answers[-1].raw)
        self.queries_processed += 1
        if answers and answers[-1].improvement_count() > 0:
            self.queries_improved += 1
        return answers

    def execute_time_bound(
        self,
        query: Union[str, ast.Query],
        time_budget_s: float,
        record: bool = True,
        inference_epsilon_s: float = 0.01,
    ) -> VerdictAnswer:
        """Answer a query within a time budget using the time-bound engine.

        Verdict shrinks the budget it hands to the AQP engine by its own
        (small) inference overhead epsilon (Section 7).
        """
        if self.time_bound is None:
            raise ReproError("no time-bound AQP engine configured")
        parsed, check = self.check(query)
        inner_budget = max(time_budget_s - inference_epsilon_s, 1e-3)
        raw = self.time_bound.execute(parsed, inner_budget)
        answer = self.process_answer(parsed, raw, check)
        if record and check.supported:
            self.record(parsed, raw)
        self.queries_processed += 1
        return answer

    # -------------------------------------------------------------- processing

    def process_answer(
        self,
        query: ast.Query,
        raw: AQPAnswer,
        check: CheckResult | None = None,
    ) -> VerdictAnswer:
        """Improve one raw AQP answer (Algorithm 2, without the synopsis update)."""
        if check is None:
            check = self.checker.check(query)
        started = time.perf_counter()
        if not check.supported:
            rows = [self._passthrough_row(row) for row in raw.rows]
            overhead = time.perf_counter() - started
            self.total_overhead_seconds += overhead
            return VerdictAnswer(
                query=query,
                raw=raw,
                rows=rows,
                supported=False,
                unsupported_reasons=check.reasons,
                overhead_seconds=overhead,
            )

        domains = self.domains_for(query.table)
        with obs_span("inference", table=query.table) as inference_span:
            plans = self._build_cell_plans(query, raw, domains)
            improved_rows: list[dict[str, ImprovedEstimate]] = [
                {} for _ in range(len(raw.rows))
            ]
            inferred = self._infer_snippets(plans)
            for index, plan in enumerate(plans):
                improved_rows[plan.row_index][plan.name] = self._assemble_cell(
                    plan,
                    raw,
                    inferred.get((index, "avg")),
                    inferred.get((index, "freq")),
                )
            if inference_span is not None:
                inference_span.set(cells=len(plans), synopsis_size=self.synopsis_size())

        rows: list[VerdictRow] = []
        for row_index, raw_row in enumerate(raw.rows):
            estimates = dict(improved_rows[row_index])
            for name, estimate in raw_row.estimates.items():
                if name not in estimates:
                    estimates[name] = _raw_passthrough(estimate)
            rows.append(VerdictRow(group_values=raw_row.group_values, estimates=estimates))
        overhead = time.perf_counter() - started
        self.total_overhead_seconds += overhead
        return VerdictAnswer(
            query=query,
            raw=raw,
            rows=rows,
            supported=True,
            unsupported_reasons=(),
            overhead_seconds=overhead,
        )

    def record(self, query: ast.Query, raw: AQPAnswer) -> int:
        """Add the raw snippets of a processed query to the synopsis.

        This is step 4 of Figure 2's workflow: the final raw answer of a
        finished query is decomposed into AVG / FREQ snippets and stored so
        that *future* queries can be improved by it.  Only supported queries
        should be recorded (Section 2.2: the class of queries that can be
        improved is the class that can improve others).

        Recording does not discard the prepared covariance factorisations:
        the next :meth:`process_answer` extends each affected factor with
        just the appended snippets (O(n^2 k)), so the system gets *faster*
        as it learns rather than re-paying the O(n^3) factorisation per
        query.

        Parameters
        ----------
        query:
            The parsed query whose answer is being recorded.
        raw:
            The final raw AQP answer of that query.

        Returns
        -------
        The number of snippets added to the synopsis.
        """
        domains = self.domains_for(query.table)
        plans = self._build_cell_plans(query, raw, domains)
        added = 0
        for plan in plans:
            for snippet in (plan.avg_snippet, plan.freq_snippet):
                if snippet is not None:
                    self.synopsis.add(snippet)
                    added += 1
        return added

    # ---------------------------------------------------------------- training

    def train(self, learn_length_scales_flag: bool | None = None) -> dict[SnippetKey, LearnedParameters]:
        """Offline step (Algorithm 1): learn parameters and refresh factorisations.

        Learns the per-aggregate correlation length scales from the synopsis
        (Appendix A) -- or falls back to the domain-width defaults -- and then
        rebuilds every prepared covariance factorisation from scratch.  A
        full rebuild (not a rank-k extension) is correct here because new
        length scales change every covariance entry; it also re-estimates the
        signal variance ``sigma_g^2`` that the incremental path keeps frozen
        between trainings.

        The call is organised as three phases -- :meth:`training_snapshot`,
        :meth:`compute_training`, :meth:`apply_training` -- so a serving
        layer can run the expensive middle phase off the request path and
        only hold its engine lock for the cheap snapshot and swap.  Two
        fast-path shortcuts apply: when nothing relevant changed since the
        last applied round (same synopsis version, same state epoch, same
        learn flag) the previous results are returned without recomputation,
        and when a previous round learned scales for an aggregate function
        the optimiser warm-starts from them instead of running random
        restarts.

        Parameters
        ----------
        learn_length_scales_flag:
            Overrides ``config.learn_length_scales`` for this call when not
            ``None``.

        Returns
        -------
        A mapping from each aggregate function's key to its learned
        parameters.

        Raises
        ------
        repro.errors.LearningError
            If the likelihood optimisation fails irrecoverably.
        """
        learn = (
            self.config.learn_length_scales
            if learn_length_scales_flag is None
            else learn_length_scales_flag
        )
        if self.training_current(learn):
            return dict(self._last_training or {})
        snapshot = self.training_snapshot(learn)
        outcome = self.compute_training(snapshot)
        return self.apply_training(outcome)

    def training_current(self, learn: bool) -> bool:
        """Whether the last applied training round still describes this state.

        True only when the synopsis version *and* the state epoch match the
        stamp recorded when that round was applied -- any record, append
        adjustment, model override, domain invalidation, or factor
        materialisation since then breaks the match and forces a real
        retrain.
        """
        return (
            self._last_training is not None
            and self._trained_marker == (learn, self.synopsis.version, self.state_epoch)
        )

    def training_snapshot(
        self, learn_length_scales_flag: bool | None = None
    ) -> TrainingSnapshot:
        """Capture the immutable inputs of one training round (cheap).

        Callers that share the engine across threads must hold their engine
        lock around this call; the returned snapshot can then be handed to
        :meth:`compute_training` without any lock.
        """
        learn = (
            self.config.learn_length_scales
            if learn_length_scales_flag is None
            else learn_length_scales_flag
        )
        entries: list[_TrainingEntry] = []
        for key in self.synopsis.keys():
            previous = self._learned.get(key)
            warm_start = (
                dict(previous.length_scales)
                if previous is not None and previous.optimized_attributes
                else None
            )
            entries.append(
                _TrainingEntry(
                    key=key,
                    snippets=tuple(self.synopsis.snippets_for(key)),
                    domains=self.domains_for(key.table),
                    warm_start=warm_start,
                )
            )
        return TrainingSnapshot(
            learn=learn,
            synopsis_version=self.synopsis.version,
            catalog_version=self.catalog.catalog_version,
            training_rounds=self._training_rounds,
            entries=tuple(entries),
        )

    def compute_training(self, snapshot: TrainingSnapshot) -> TrainingOutcome:
        """Run the expensive part of the offline step over a snapshot.

        Pure with respect to the engine's learned state: only the snapshot's
        snippet tuples and domains are read, so this may run concurrently
        with queries (and with synopsis growth) on another thread.  The
        factorisations are prepared at the snapshot's synopsis version;
        :meth:`apply_training` reconciles them with whatever happened while
        this ran.
        """
        results: dict[SnippetKey, LearnedParameters] = {}
        prepared: dict[SnippetKey, PreparedInference] = {}
        for entry in snapshot.entries:
            snippets = list(entry.snippets)
            if snapshot.learn:
                learned = learn_length_scales(
                    entry.key,
                    snippets,
                    entry.domains,
                    self.config,
                    warm_start=entry.warm_start,
                )
            else:
                learned = LearnedParameters(
                    key=entry.key,
                    length_scales=entry.domains.default_length_scales(),
                    sigma2=estimate_prior(snippets, entry.domains).variance,
                    optimized_attributes=(),
                    converged=False,
                )
            results[entry.key] = learned
            if snippets and len(snippets) >= self.config.min_past_snippets:
                factorised = self.inference.prepare(
                    entry.key,
                    snippets,
                    learned.as_model(),
                    entry.domains,
                    synopsis_version=snapshot.synopsis_version,
                )
                if factorised is not None:
                    prepared[entry.key] = factorised
        return TrainingOutcome(
            learn=snapshot.learn,
            synopsis_version=snapshot.synopsis_version,
            catalog_version=snapshot.catalog_version,
            training_rounds=snapshot.training_rounds,
            results=results,
            prepared=prepared,
        )

    def apply_training(
        self, outcome: TrainingOutcome
    ) -> dict[SnippetKey, LearnedParameters]:
        """Swap a computed training round into the engine (cheap, atomic).

        Callers that share the engine across threads must hold their engine
        lock.  Models are always installed; a prepared factorisation is
        installed only when it is still *extendable* to the current synopsis
        -- the snapshot-to-now delta is known, the key saw no eviction or
        adjustment, and the catalog did not change underneath it (which would
        invalidate the attribute domains baked into the factors).  Dropped
        factorisations rebuild lazily on next use; snippets appended while
        training ran are folded in by the usual rank-k extension.

        An outcome whose snapshot predates the last *applied* round is
        discarded (its results are returned but nothing is installed): a
        slow background round must never overwrite the models of a newer
        round that completed while it was computing.  The applied-rounds
        counter (not the synopsis version) carries that ordering -- two
        rounds can legitimately snapshot the same synopsis version.
        """
        if outcome.training_rounds != self._training_rounds:
            return dict(outcome.results)
        self._training_rounds += 1
        self.models_version += 1
        for key, learned in outcome.results.items():
            self._models[key] = learned.as_model()
        self._learned.update(outcome.results)
        delta = self.synopsis.changes_since(outcome.synopsis_version)
        self._prepared.clear()
        if delta is not None and outcome.catalog_version == self.catalog.catalog_version:
            for key, factorised in outcome.prepared.items():
                if key not in delta.dirty:
                    self._prepared[key] = factorised
        self._factor_barrier()
        self._last_training = dict(outcome.results)
        # Stamped with the *snapshot's* synopsis version: if the synopsis
        # advanced while compute ran, the next train() must not skip.
        self._trained_marker = (
            outcome.learn,
            outcome.synopsis_version,
            self.state_epoch,
        )
        return dict(outcome.results)

    def set_model(self, key: SnippetKey, model: AggregateModel) -> None:
        """Override the correlation parameters of one aggregate function.

        Used by the Figure 9 experiment, which injects deliberately mis-scaled
        length scales to stress the model validation.
        """
        self._models[key] = model
        self._prepared.pop(key, None)
        self._factor_barrier()
        self.models_version += 1

    def model_for(self, key: SnippetKey) -> AggregateModel:
        model = self._models.get(key)
        if model is None:
            domains = self.domains_for(key.table)
            model = AggregateModel(key=key, length_scales=domains.default_length_scales())
        return model

    # ------------------------------------------------------------- data append

    def register_append(
        self, table_name: str, appended: Table, adjust: bool = True
    ) -> int:
        """Append new tuples to a table and adjust the synopsis (Appendix D).

        Every snippet of the table has its answer shifted and its error
        inflated per Lemma 3 (computed from per-attribute column moments, one
        scan per measure attribute).  The adjustment changes every
        observation-noise entry, so the affected factorisations are marked
        dirty and fully rebuilt on next use -- this is one of the mutations
        the rank-k incremental path deliberately does not cover.

        Parameters
        ----------
        table_name:
            The fact table receiving the appended tuples.
        appended:
            The new tuples (schema-compatible with the existing table).
        adjust:
            Passing ``False`` reproduces the "no adjustment" ablation of
            Figure 12: the data grows but past snippets keep their stale
            answers and errors.

        Returns
        -------
        The number of snippets adjusted.

        Raises
        ------
        repro.errors.TableError
            If the appended table's schema does not match.
        """
        old_table = self.catalog.table(table_name)
        old_count = old_table.num_rows
        new_count = appended.num_rows
        # append_rows keeps the cached denormalizations (extended by the
        # delta join) and the appended table reuses the old table's partition
        # zone maps and codes -- only new partitions are built.
        self.catalog.append_rows(table_name, appended)
        self.aqp.samples.invalidate(table_name)
        if self.time_bound is not None:
            self.time_bound.samples.invalidate(table_name)
        self.invalidate_domains(table_name)

        if not adjust:
            return 0

        # AVG keys differing only in their residual signature share a measure
        # attribute; compute each attribute's moments once instead of
        # rescanning the old and appended columns per aggregate function.
        moments: dict[str, tuple[ColumnMoments, ColumnMoments]] = {}
        empty = ColumnMoments.empty()
        adjusted = 0
        for key in self.synopsis.keys():
            if key.table != table_name:
                continue
            if key.kind is AggregateKind.AVG and key.attribute and appended.has_column(key.attribute):
                attribute = key.attribute
                if attribute not in moments:
                    moments[attribute] = (
                        ColumnMoments.from_values(old_table.column(attribute)),
                        ColumnMoments.from_values(appended.column(attribute)),
                    )
                old_moments, new_moments = moments[attribute]
            else:
                old_moments, new_moments = empty, empty
            adjustment = adjustment_from_moments(
                old_moments, new_moments, old_count, new_count, kind=key.kind
            )
            adjusted += self.synopsis.transform(
                key, lambda snippet: apply_append_adjustment(snippet, adjustment)
            )
        self._prepared.clear()
        self._factor_barrier()
        return adjusted

    # ------------------------------------------------------------------ helpers

    def _prepared_for(self, key: SnippetKey) -> PreparedInference | None:
        """The factorised model of one aggregate function, kept current.

        A cached factorisation whose synopsis version is stale is first
        offered the appended-snippet delta (rank-k Cholesky extension,
        O(n^2 k)); only when the delta is unknown, contains non-append
        mutations, or crosses the rebuild threshold does the O(n^3) full
        factorisation run.
        """
        version = self.synopsis.version
        cached = self._prepared.get(key)
        if cached is not None and cached.synopsis_version == version:
            return cached
        if cached is not None:
            extended = self._extend_prepared(key, cached, version)
            if extended is not None:
                # Also when only the version stamp moved (no appends for this
                # key): a replayed factor must ask for its next delta from
                # the same version, or the change log's floor could pass one
                # and not the other.
                self._note_factor_event(key, version)
                self._prepared[key] = extended
                return extended
        snippets = self.synopsis.snippets_for(key)
        if len(snippets) < self.config.min_past_snippets or not snippets:
            if self._prepared.pop(key, None) is not None:
                self._note_factor_event(key, version)
            return None
        prepared = self.inference.prepare(
            key,
            snippets,
            self.model_for(key),
            self.domains_for(key.table),
            synopsis_version=version,
        )
        if prepared is not None:
            self._prepared[key] = prepared
            self._note_factor_event(key, version)
        return prepared

    def _extend_prepared(
        self, key: SnippetKey, cached: PreparedInference, version: int
    ) -> PreparedInference | None:
        """Try to bring a stale factorisation current by rank-k extension.

        Returns ``None`` when the synopsis delta cannot be applied
        incrementally (unknown delta, eviction/adjustment on this key, or
        enough appends accumulated that the frozen ``sigma_g^2`` should be
        re-estimated -- see ``VerdictConfig.incremental_rebuild_ratio``).
        """
        delta = self.synopsis.changes_since(cached.synopsis_version)
        if delta is None or key in delta.dirty:
            return None
        appended = delta.appended.get(key, [])
        if not appended:
            # Other aggregate functions changed; this factorisation is intact.
            cached.synopsis_version = version
            return cached
        base = max(cached.base_size, 1)
        total_appended = cached.appended_since_base + len(appended)
        if total_appended > self.config.incremental_rebuild_ratio * base:
            return None
        return self.inference.extend(cached, appended, synopsis_version=version)

    # ---------------------------------------------------------- factor schedule

    def _note_factor_event(self, key: SnippetKey, version: int) -> None:
        """Log that ``_prepared_for(key)`` changed a factor at ``version``."""
        self.state_epoch += 1
        self._factor_events.append((self.state_epoch, key, version))
        while len(self._factor_events) > _FACTOR_SCHEDULE_LIMIT:
            self._factor_floor = self._factor_events.popleft()[0]

    def _factor_barrier(self) -> None:
        """A learned-state mutation the factor schedule cannot replay."""
        self.state_epoch += 1
        self._restart_factor_schedule()

    def _restart_factor_schedule(self) -> None:
        """Nothing before the current state epoch can be replayed from here."""
        self._factor_events.clear()
        self._factor_floor = self.state_epoch

    def factor_events_since(self, epoch: int) -> list[tuple[SnippetKey, int]] | None:
        """The ``(key, synopsis version)`` factor events after ``epoch``.

        In order; re-running :meth:`replay_factor_event` for each, with the
        synopsis at the event's version, takes the factors of an engine that
        was at ``epoch`` to this engine's bit for bit.  ``None`` when that is
        not enough: a barrier happened since ``epoch``, or the events were
        trimmed or forgotten.
        """
        if epoch < self._factor_floor or epoch > self.state_epoch:
            return None
        return [
            (key, version)
            for stamp, key, version in self._factor_events
            if stamp > epoch
        ]

    def forget_factor_events(self, epoch: int) -> None:
        """Drop the events up to ``epoch`` (their consumer persisted them)."""
        while self._factor_events and self._factor_events[0][0] <= epoch:
            self._factor_events.popleft()
        self._factor_floor = max(self._factor_floor, epoch)

    def replay_factor_event(self, key: SnippetKey) -> None:
        """Re-run a logged factor event; the synopsis is at its version."""
        self._prepared_for(key)

    def prepared_factors(self) -> dict[SnippetKey, PreparedInference]:
        """The current factorisations (a copy of the mapping, not of them)."""
        return dict(self._prepared)

    def reset_factors(
        self, factors: dict[SnippetKey, PreparedInference], epoch: int
    ) -> None:
        """Rewind to factorisations (and the state epoch) taken earlier.

        A replication follower uses this to discard what its own asks grew
        before it applies shipped factor events: those must extend the
        factor the leader extended, and ``extend`` never mutates its input.
        """
        self._prepared = dict(factors)
        self.state_epoch = epoch
        self._restart_factor_schedule()

    def _build_cell_plans(
        self, query: ast.Query, raw: AQPAnswer, domains: AttributeDomains
    ) -> list[_CellPlan]:
        aggregate_items = [item for item in query.select if item.is_aggregate]
        limit = self.config.max_snippets_per_query * max(len(aggregate_items), 1)
        specs = decompose_query(query, group_rows=raw.group_rows(), max_snippets=limit)
        builder = RegionBuilder(domains)
        plans: list[_CellPlan] = []
        select_items = list(query.select)
        for spec in specs:
            if spec.group_index >= len(raw.rows):
                continue
            raw_row = raw.rows[spec.group_index]
            item = select_items[spec.aggregate_index]
            name = item.output_name
            estimate = raw_row.estimates.get(name)
            if estimate is None:
                continue
            region = builder.build(spec.predicate)
            plan = _CellPlan(
                row_index=spec.group_index,
                name=name,
                function=spec.aggregate.function,
                raw=estimate,
            )
            self._attach_snippets(plan, spec, region, query.table, estimate)
            plans.append(plan)
        return plans

    def _attach_snippets(
        self,
        plan: _CellPlan,
        spec: SnippetSpec,
        region: Region,
        table: str,
        estimate: AggregateEstimate,
    ) -> None:
        function = spec.aggregate.function
        internal = estimate.internal
        needs_avg = function in (ast.AggregateFunction.AVG, ast.AggregateFunction.SUM)
        needs_freq = function in (
            ast.AggregateFunction.COUNT,
            ast.AggregateFunction.SUM,
            ast.AggregateFunction.FREQ,
        )
        if needs_avg and internal.avg_value is not None:
            attribute = _expression_label(spec.aggregate.argument)
            key = SnippetKey(
                kind=AggregateKind.AVG,
                table=table,
                attribute=attribute,
                residual=region.residual,
            )
            plan.avg_snippet = Snippet(
                key=key,
                region=region,
                raw_answer=float(internal.avg_value),
                raw_error=float(internal.avg_error or 0.0),
            )
        if needs_freq:
            key = SnippetKey(
                kind=AggregateKind.FREQ, table=table, residual=region.residual
            )
            plan.freq_snippet = Snippet(
                key=key,
                region=region,
                raw_answer=float(internal.freq_value),
                raw_error=float(internal.freq_error),
            )

    def _infer_snippets(
        self, plans: list[_CellPlan]
    ) -> dict[tuple[int, str], tuple[float, float, bool, str]]:
        """Improve every snippet of every cell plan, batched per aggregate key.

        All snippets sharing one aggregate function (typically every cell of
        a group-by answer) are conditioned in a single blocked matrix solve
        (:meth:`GaussianInference.infer_batch`); model validation then runs
        per cell on the vectorised results.  Returns a mapping from
        ``(plan index, "avg" | "freq")`` to the ``(value, error, improved,
        reason)`` tuple that :meth:`_assemble_cell` consumes.
        """
        jobs: dict[SnippetKey, list[tuple[int, str, Snippet]]] = {}
        for index, plan in enumerate(plans):
            for role, snippet in (("avg", plan.avg_snippet), ("freq", plan.freq_snippet)):
                if snippet is not None:
                    jobs.setdefault(snippet.key, []).append((index, role, snippet))

        results: dict[tuple[int, str], tuple[float, float, bool, str]] = {}
        for key, entries in jobs.items():
            prepared = self._prepared_for(key)
            if prepared is None:
                for index, role, snippet in entries:
                    results[(index, role)] = (
                        snippet.raw_answer,
                        snippet.raw_error,
                        False,
                        "empty synopsis",
                    )
                continue
            inferred = self.inference.infer_batch(
                prepared, [snippet for _, _, snippet in entries]
            )
            self.synopsis.mark_used(key, prepared.snippet_ids)
            for (index, role, snippet), result in zip(entries, inferred):
                decision = validate_model_answer(
                    result,
                    key.kind,
                    validation_confidence=self.config.validation_confidence,
                    enabled=self.config.enable_model_validation,
                    conservative=self.config.conservative_validation,
                )
                improved = decision.accepted and decision.improved_error < snippet.raw_error
                results[(index, role)] = (
                    decision.improved_answer,
                    decision.improved_error,
                    improved,
                    decision.reason,
                )
        return results

    def _assemble_cell(
        self,
        plan: _CellPlan,
        raw: AQPAnswer,
        avg_result: tuple[float, float, bool, str] | None,
        freq_result: tuple[float, float, bool, str] | None,
    ) -> ImprovedEstimate:
        """Recombine improved AVG / FREQ snippets into the user-facing cell."""
        population = raw.population_size
        function = plan.function

        if function is ast.AggregateFunction.AVG and avg_result is not None:
            value, error, improved, reason = avg_result
        elif function is ast.AggregateFunction.FREQ and freq_result is not None:
            value, error, improved, reason = freq_result
        elif function is ast.AggregateFunction.COUNT and freq_result is not None:
            freq_value, freq_error, improved, reason = freq_result
            value = freq_value * population
            error = freq_error * population
        elif function is ast.AggregateFunction.SUM and avg_result is not None and freq_result is not None:
            avg_value, avg_error, avg_improved, avg_reason = avg_result
            freq_value, freq_error, freq_improved, freq_reason = freq_result
            count_value = freq_value * population
            count_error = freq_error * population
            value = avg_value * count_value
            error = math.sqrt(
                (count_value * avg_error) ** 2 + (avg_value * count_error) ** 2
            )
            improved = avg_improved or freq_improved
            reason = "; ".join(sorted({avg_reason, freq_reason}))
        else:
            return _raw_passthrough(plan.raw)

        # Never report an improved error larger than the raw error: the
        # recombination of SUM from two improved components uses an
        # independence approximation, so cap it for safety (Theorem 1 applies
        # per snippet, and the cap keeps it true per user-facing aggregate).
        if error > plan.raw.error and plan.raw.error > 0:
            value, error = plan.raw.value, plan.raw.error
            improved = False
            reason = "recombination not tighter than raw"
        return ImprovedEstimate(
            name=plan.name,
            function=function,
            value=value,
            error=error,
            raw_value=plan.raw.value,
            raw_error=plan.raw.error,
            improved=improved,
            validation_reason=reason,
        )

    def _passthrough_row(self, row: AQPRow) -> VerdictRow:
        estimates = {name: _raw_passthrough(est) for name, est in row.estimates.items()}
        return VerdictRow(group_values=row.group_values, estimates=estimates)

    # ------------------------------------------------------------ serialization

    def state_dict(self) -> dict:
        """JSON-safe snapshot of everything the engine has learned.

        Captures the query synopsis (with identities and LRU order), the
        learned correlation models, and the prepared covariance
        factorisations themselves.
        Persisting the factors matters for exactness: a factor grown by
        rank-k extension differs in its floating-point bits from one rebuilt
        from scratch, so restoring the arrays (rather than re-preparing) is
        what makes a reloaded engine answer *identically* to the one that
        never stopped.  Factors prepared at an older synopsis version are
        kept too: the snapshot carries the synopsis change log, so a restored
        engine extends them incrementally exactly as the running one would.
        Growth after the snapshot need not be snapshotted again: the same
        base arrays extended by the same snippets at the same synopsis
        versions (:meth:`factor_events_since`) give the same bits.
        """
        from repro.core.serialize import STATE_FORMAT_VERSION

        return {
            "format": STATE_FORMAT_VERSION,
            "synopsis": self.synopsis.state_dict(),
            "models": [
                {"key": key.to_state(), "length_scales": dict(model.length_scales)}
                for key, model in self._models.items()
            ],
            "counters": {
                "queries_processed": self.queries_processed,
                "queries_improved": self.queries_improved,
                "total_overhead_seconds": self.total_overhead_seconds,
                "state_epoch": self.state_epoch,
            },
            "prepared": [
                _prepared_state(prepared) for prepared in self._prepared.values()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the learned state captured by :meth:`state_dict`.

        The catalog is *not* part of the state: the caller is responsible for
        constructing the engine over the same data, and attribute domains are
        re-derived from it (deterministically, so factor computations match).
        """
        from repro.core.serialize import STATE_FORMAT_VERSION

        if state.get("format") != STATE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported engine state format {state.get('format')!r} "
                f"(expected {STATE_FORMAT_VERSION})"
            )
        self.synopsis = QuerySynopsis.from_state(state["synopsis"])
        self._models = {}
        for model_state in state["models"]:
            key = SnippetKey.from_state(model_state["key"])
            self._models[key] = AggregateModel(
                key=key, length_scales=dict(model_state["length_scales"])
            )
        counters = state["counters"]
        self.queries_processed = counters["queries_processed"]
        self.queries_improved = counters["queries_improved"]
        self.total_overhead_seconds = counters["total_overhead_seconds"]
        self.state_epoch = counters["state_epoch"]
        self._restart_factor_schedule()
        # Warm-start / skip bookkeeping is process-local (not persisted): a
        # restored engine retrains from scratch on its first train().
        self._learned = {}
        self._last_training = None
        self._trained_marker = None
        # Invalidate any snapshot taken before the load (its round count no
        # longer matches), without resetting the monotonic counter.
        self._training_rounds += 1
        self._domains_cache.clear()
        self._prepared = {}
        for prepared_state in state["prepared"]:
            prepared = self._prepared_from_state(prepared_state)
            if prepared is not None:
                self._prepared[prepared.key] = prepared

    def _prepared_from_state(self, state: dict) -> PreparedInference | None:
        """Rebuild one prepared factorisation; ``None`` when unresolvable."""
        from repro.core.prior import PriorEstimate
        from repro.core.serialize import decode_array

        key = SnippetKey.from_state(state["key"])
        by_id = {s.snippet_id: s for s in self.synopsis.snippets_for(key)}
        snippets = []
        for snippet_id in state["snippet_ids"]:
            snippet = by_id.get(snippet_id)
            if snippet is None:
                return None  # snapshot/factor mismatch; rebuild lazily instead
            snippets.append(snippet)
        covariance = SnippetCovariance(self.domains_for(key.table), self.model_for(key))
        prior_state = state["prior"]
        return PreparedInference(
            key=key,
            snippets=snippets,
            covariance=covariance,
            prior=PriorEstimate(
                mean=prior_state["mean"],
                variance=prior_state["variance"],
                count=prior_state["count"],
            ),
            sigma2=state["sigma2"],
            observations=decode_array(state["observations"]),
            noise_variances=decode_array(state["noise_variances"]),
            centered=decode_array(state["centered"]),
            # Fortran order, as LAPACK made it: the triangular solves would
            # otherwise copy the whole factor on every call.
            cho=(
                np.asfortranarray(decode_array(state["cho_matrix"])),
                state["cho_lower"],
            ),
            alpha=decode_array(state["alpha"]),
            calibration=state["calibration"],
            synopsis_version=state["synopsis_version"],
            jitter=state["jitter"],
            inverse_diagonal=decode_array(state["inverse_diagonal"]),
            base_size=state["base_size"],
        )

    # --------------------------------------------------------------- statistics

    def synopsis_size(self) -> int:
        return len(self.synopsis)

    def memory_footprint_bytes(self) -> int:
        """Synopsis payload plus the precomputed covariance factorisations."""
        total = self.synopsis.memory_footprint_bytes()
        for prepared in self._prepared.values():
            total += prepared.size * prepared.size * 8
            total += prepared.size * 3 * 8
        return total


def _prepared_state(prepared: PreparedInference) -> dict:
    """JSON-safe state of one prepared factorisation (exact array payloads)."""
    from repro.core.serialize import encode_array

    return {
        "key": prepared.key.to_state(),
        "snippet_ids": list(prepared.snippet_ids),
        "prior": {
            "mean": prepared.prior.mean,
            "variance": prepared.prior.variance,
            "count": prepared.prior.count,
        },
        "sigma2": prepared.sigma2,
        "observations": encode_array(prepared.observations),
        "noise_variances": encode_array(prepared.noise_variances),
        "centered": encode_array(prepared.centered),
        "cho_matrix": encode_array(prepared.cho[0]),
        "cho_lower": bool(prepared.cho[1]),
        "alpha": encode_array(prepared.alpha),
        "calibration": prepared.calibration,
        "synopsis_version": prepared.synopsis_version,
        "jitter": prepared.jitter,
        "inverse_diagonal": encode_array(prepared.inverse_diagonal),
        "base_size": prepared.base_size,
    }


def _raw_passthrough(estimate: AggregateEstimate) -> ImprovedEstimate:
    """Wrap a raw estimate unchanged (unsupported query / empty synopsis)."""
    return ImprovedEstimate(
        name=estimate.name,
        function=estimate.function,
        value=estimate.value,
        error=estimate.error,
        raw_value=estimate.value,
        raw_error=estimate.error,
        improved=False,
        validation_reason="passthrough",
    )


def _expression_label(expression: ast.Expression) -> str:
    """Canonical label of a measure expression, used in snippet keys."""
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    if isinstance(expression, ast.Star):
        return "*"
    if isinstance(expression, ast.BinaryOp):
        return f"({_expression_label(expression.left)}{expression.op}{_expression_label(expression.right)})"
    return repr(expression)
