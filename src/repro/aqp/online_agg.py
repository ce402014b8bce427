"""Online aggregation AQP engine ("NoLearn" in Section 8.1).

The engine creates uniform random samples of fact tables offline and splits
them into batches.  To answer a query it computes an approximate answer and
CLT error bound on the first batch, then keeps refining the answer batch by
batch.  Runtime is accounted with the deterministic IO cost model: planning
overhead is charged once per query, dimension tables joined to the sample are
charged once (they are not sampled), and every batch adds its scan cost.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from repro import faults
from repro.aqp.evaluation import estimate_answer
from repro.aqp.types import AQPAnswer
from repro.config import CostModelConfig, SamplingConfig
from repro.db.catalog import Catalog
from repro.db.io_model import IOSimulator
from repro.db.sampling import SampleStore
from repro.db.scan import ScanCounters
from repro.db.table import Table
from repro.deadline import check_deadline
from repro.errors import AQPError, DeadlineExceeded
from repro.sqlparser import ast

StopCondition = Callable[[AQPAnswer], bool]


def budget_hopeless(
    answer: AQPAnswer, bound: float, max_relative_error: float | None
) -> bool:
    """Whether refining ``answer`` to the full sample provably misses the budget.

    The CLT error bound shrinks as ``1/sqrt(rows scanned)``, so the bound the
    *full* sample can achieve is about ``bound * sqrt(scanned / total)``.
    When even that exceeds ``max_relative_error``, further batches are wasted
    work and the caller should escalate to a better engine.  Shared by
    :meth:`OnlineAggregationEngine.execute_with_budget` and the serving
    layer's learned route.
    """
    if max_relative_error is None:
        return False
    if answer.sample_size <= 0 or not 0 < answer.rows_scanned < answer.sample_size:
        return False
    achievable = bound * math.sqrt(answer.rows_scanned / answer.sample_size)
    return achievable > max_relative_error


class OnlineAggregationEngine:
    """Batch-by-batch online aggregation over offline uniform samples."""

    def __init__(
        self,
        catalog: Catalog,
        sampling: SamplingConfig | None = None,
        cost_model: CostModelConfig | None = None,
        sample_store: SampleStore | None = None,
        scan_counters: ScanCounters | None = None,
    ):
        self.catalog = catalog
        self.sampling = sampling or SamplingConfig()
        self.samples = sample_store or SampleStore(catalog, self.sampling)
        self.io = IOSimulator(cost_model)
        # Per-owner scan attribution: the owning service passes its shared
        # counters so sample scans are booked to that service, not only to
        # the process-wide totals.
        self.scan_counters = scan_counters

    # ------------------------------------------------------------------ public

    def run(self, query: ast.Query) -> Iterator[AQPAnswer]:
        """Yield cumulative approximate answers, one per processed batch.

        The dimension joins are computed *incrementally*: each batch joins
        only its newly scanned sample rows and appends them to the joined
        prefix of the previous batches.  The foreign-key join is row-wise and
        order-preserving, so the concatenation equals joining the whole
        prefix -- but the per-batch cost is O(batch) instead of O(prefix),
        keeping late batches as cheap as early ones.

        Joined batch prefixes are additionally memoised in the catalog's
        denormalization cache, keyed by (sample identity, prefix rows, join
        clauses): later queries with the same joins skip the join work
        entirely.  Sample invalidation (after a data append) issues a fresh
        sample identity, so stale prefixes can never be served.
        """
        if not self.catalog.has_table(query.table):
            raise AQPError(f"unknown table {query.table!r}")
        sample = self.samples.sample_for(query.table)
        population_size = self.catalog.cardinality(query.table)
        unsampled_rows = self._unsampled_join_rows(query)

        elapsed = 0.0
        previous_rows = 0
        joined: Table | None = None
        for batch_number, (rows, prefix) in enumerate(sample.iter_batch_prefixes(), start=1):
            # Cooperative cancellation: one ambient-deadline poll per batch.
            # Callers holding a previous batch's estimate catch the raise and
            # serve that prefix estimate as a flagged partial answer.
            check_deadline(f"online aggregation batch {batch_number}")
            faults.inject("aqp.batch", batch=batch_number)
            first_batch = batch_number == 1
            report = self.io.charge_query(
                rows_scanned=rows - previous_rows,
                unsampled_rows=unsampled_rows if first_batch else 0,
                include_planning=first_batch,
            )
            elapsed += report.total_seconds
            if not query.joins:
                joined = prefix
            else:
                prefix_token = (sample.cache_token, rows)
                cached = self.catalog.cached_join(prefix_token, query.joins)
                if cached is not None:
                    joined = cached
                elif joined is None:
                    joined = self._apply_joins(query, prefix)
                    self.catalog.store_join(prefix_token, query.joins, joined)
                else:
                    # Zero-copy view of the newly scanned batch; the append
                    # records lineage, so the grown prefix reuses the prior
                    # prefix's partitions/dictionaries and only builds state
                    # for the new tail partitions.
                    delta = prefix.slice_rows(previous_rows, rows)
                    joined = joined.append(self._apply_joins(query, delta))
                    self.catalog.store_join(prefix_token, query.joins, joined)
            previous_rows = rows
            yield estimate_answer(
                query=query,
                scanned_table=joined,
                scanned_rows=len(joined),
                sample_size=sample.sample_size,
                population_size=population_size,
                elapsed_seconds=elapsed,
                batches_processed=batch_number,
                counters=self.scan_counters,
            )

    def execute(
        self,
        query: ast.Query,
        stop: StopCondition | None = None,
        max_batches: int | None = None,
    ) -> list[AQPAnswer]:
        """Run online aggregation and collect the sequence of answers.

        Processing stops as soon as ``stop(answer)`` returns True (the answer
        that satisfied the condition is included), when ``max_batches`` have
        been processed, or when the sample is exhausted.  When the ambient
        request deadline (:mod:`repro.deadline`) expires between batches the
        answers collected so far are returned -- every prefix is a valid
        estimate ± error, so an expired deadline degrades accuracy, not
        correctness; with no batch processed yet the
        :class:`~repro.errors.DeadlineExceeded` propagates (there is nothing
        to degrade to).
        """
        answers: list[AQPAnswer] = []
        try:
            for answer in self.run(query):
                answers.append(answer)
                if stop is not None and stop(answer):
                    break
                if max_batches is not None and answer.batches_processed >= max_batches:
                    break
        except DeadlineExceeded:
            if not answers:
                raise
        return answers

    def execute_with_budget(
        self,
        query: ast.Query,
        max_relative_error: float | None = None,
        max_latency_s: float | None = None,
        confidence_multiplier: float = 1.96,
        give_up_when_hopeless: bool = False,
    ) -> AQPAnswer:
        """Budget-aware execution: refine only as far as the budget requires.

        Batches are processed until the mean relative error *bound* (at the
        given confidence multiplier) drops to ``max_relative_error``, the
        cumulative model time reaches ``max_latency_s``, or the sample is
        exhausted -- whichever happens first.  This is the engine-selection
        hook the serving layer's planner uses: the cheapest answer that still
        meets the caller's budget.

        With ``give_up_when_hopeless`` the refinement also stops as soon as
        the error budget is provably unreachable: the CLT bound shrinks as
        ``1/sqrt(rows)``, so the bound achievable on the *full* sample is
        about ``bound * sqrt(rows_scanned / sample_size)``.  When even that
        exceeds the budget, further batches are wasted work and the caller
        should escalate to a better engine instead.

        Returns the last processed answer (callers check whether it actually
        meets the budget).

        Raises
        ------
        repro.errors.AQPError
            If the query references an unknown table or produces no answers.
        """

        def stop(answer: AQPAnswer) -> bool:
            bound = answer.mean_relative_error_bound(confidence_multiplier)
            if max_relative_error is not None and bound <= max_relative_error:
                return True
            if max_latency_s is not None and answer.elapsed_seconds >= max_latency_s:
                return True
            if give_up_when_hopeless and budget_hopeless(answer, bound, max_relative_error):
                return True
            return False

        answers = self.execute(query, stop=stop)
        if not answers:
            raise AQPError("online aggregation produced no answers")
        return answers[-1]

    def final_answer(self, query: ast.Query) -> AQPAnswer:
        """The most accurate answer (after scanning the whole sample)."""
        answers = self.execute(query)
        if not answers:
            raise AQPError("online aggregation produced no answers")
        return answers[-1]

    def first_answer(self, query: ast.Query) -> AQPAnswer:
        """The answer after the first batch only (cheapest, least accurate)."""
        for answer in self.run(query):
            return answer
        raise AQPError("online aggregation produced no answers")

    # ----------------------------------------------------------------- helpers

    def _apply_joins(self, query: ast.Query, prefix: Table) -> Table:
        joined = prefix
        for join_clause in query.joins:
            joined = self.catalog.join(joined, join_clause)
        return joined

    def _unsampled_join_rows(self, query: ast.Query) -> int:
        """Rows of unsampled dimension tables that each query must read."""
        total = 0
        for join_clause in query.joins:
            if self.catalog.has_table(join_clause.table):
                total += self.catalog.cardinality(join_clause.table)
        return total

    @property
    def cost_model(self) -> CostModelConfig:
        return self.io.config
