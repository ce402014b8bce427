"""Online aggregation AQP engine ("NoLearn" in Section 8.1).

The engine creates uniform random samples of fact tables offline and splits
them into batches.  One batch loop (``_prefixes``) scans the batches in order
and joins each to the dimension tables, yielding the growing joined prefix.
:meth:`OnlineAggregationEngine.run` estimates every prefix -- an approximate
answer and CLT error bound after the first batch, refined batch by batch --
while :meth:`~OnlineAggregationEngine.final_answer` estimates only the last
prefix, since recording a query keeps nothing else.  Runtime is accounted
with the deterministic IO cost model: planning overhead is charged once per
query, dimension tables joined to the sample are charged once (they are not
sampled), and every batch adds its scan cost.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from repro import faults
from repro.aqp.evaluation import estimate_answer
from repro.aqp.types import AQPAnswer
from repro.config import CostModelConfig, SamplingConfig
from repro.db.catalog import Catalog
from repro.db.io_model import IOSimulator
from repro.db.sampling import SampleStore
from repro.db.scan import ScanCounters
from repro.db.table import Table
from repro.deadline import check_deadline, deadline_scope
from repro.errors import AQPError, DeadlineExceeded
from repro.sqlparser import ast


def budget_hopeless(
    answer: AQPAnswer, bound: float, max_relative_error: float | None
) -> bool:
    """Whether refining ``answer`` to the full sample provably misses the budget.

    The CLT error bound shrinks as ``1/sqrt(rows scanned)``, so the bound the
    *full* sample can achieve is about ``bound * sqrt(scanned / total)``.
    When even that exceeds ``max_relative_error``, further batches are wasted
    work and the caller should escalate to a better engine.  The serving
    layer's sampled-route loop stops on it.
    """
    if max_relative_error is None:
        return False
    if answer.sample_size <= 0 or not 0 < answer.rows_scanned < answer.sample_size:
        return False
    achievable = bound * math.sqrt(answer.rows_scanned / answer.sample_size)
    return achievable > max_relative_error


class _Prefix(NamedTuple):
    """The joined sample prefix after one batch, with what estimating it needs."""

    joined: Table
    elapsed_seconds: float  # cumulative IO-model time up to this batch
    batches_processed: int
    sample_size: int
    population_size: int


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
        # counters so sample scans are booked to that service.
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()

    # ------------------------------------------------------------------ public

    def run(self, query: ast.Query) -> Iterator[AQPAnswer]:
        """Yield cumulative approximate answers, one per processed batch.

        Every joined prefix of :meth:`_prefixes` is estimated (scan, group-by
        and CLT bounds), so a caller can stop at any batch with a valid
        answer.  A caller that only keeps the last answer should use
        :meth:`final_answer`, which estimates that prefix alone.
        """
        for prefix in self._prefixes(query):
            yield self._estimate(query, prefix)

    def execute(self, query: ast.Query) -> list[AQPAnswer]:
        """Every answer of :meth:`run`, one per batch.

        When the ambient request deadline (:mod:`repro.deadline`) expires
        between batches the answers collected so far are returned -- every
        prefix is a valid estimate ± error, so an expired deadline degrades
        accuracy, not correctness; with no batch processed yet the
        :class:`~repro.errors.DeadlineExceeded` propagates (there is nothing
        to degrade to).
        """
        answers: list[AQPAnswer] = []
        try:
            for answer in self.run(query):
                answers.append(answer)
        except DeadlineExceeded:
            if not answers:
                raise
        return answers

    def final_answer(self, query: ast.Query) -> AQPAnswer:
        """The answer over the whole sample, estimated once.

        The batches are joined exactly as :meth:`run` joins them, but only
        the last prefix reached is estimated.  When the ambient deadline
        expires, the per-batch poll stops the loop and the last prefix
        joined before it is estimated; with no batch joined the
        :class:`~repro.errors.DeadlineExceeded` propagates.  That one
        estimate runs with the deadline lifted (cancellation still aborts
        it): it is the answer the loop already paid for, and an expired
        deadline degrades accuracy, never the answer itself.
        """
        last: _Prefix | None = None
        try:
            for last in self._prefixes(query):
                pass
        except DeadlineExceeded:
            if last is None:
                raise
        if last is None:
            raise AQPError("online aggregation produced no answers")
        with deadline_scope(None):
            return self._estimate(query, last)

    def first_answer(self, query: ast.Query) -> AQPAnswer:
        """The answer after the first batch only (cheapest, least accurate)."""
        for answer in self.run(query):
            return answer
        raise AQPError("online aggregation produced no answers")

    # ----------------------------------------------------------------- batches

    def _prefixes(self, query: ast.Query) -> Iterator[_Prefix]:
        """Yield the joined sample prefix after every batch.

        Each batch polls the ambient deadline, passes the ``aqp.batch`` fault
        point and charges the IO model before it is joined.  The dimension
        joins are computed *incrementally*: each batch joins only its newly
        scanned sample rows and appends them to the joined prefix of the
        previous batches.  The foreign-key join is row-wise and
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
                    # prefix's zone maps and only builds those of the new
                    # tail partitions.  Both joins share the dimensions'
                    # dictionaries, so the codes concatenate as they are.
                    delta = prefix.slice_rows(previous_rows, rows)
                    joined = joined.append(self._apply_joins(query, delta))
                    self.catalog.store_join(prefix_token, query.joins, joined)
            previous_rows = rows
            yield _Prefix(joined, elapsed, batch_number, sample.sample_size, population_size)

    def _estimate(self, query: ast.Query, prefix: _Prefix) -> AQPAnswer:
        return estimate_answer(
            query=query,
            scanned_table=prefix.joined,
            scanned_rows=len(prefix.joined),
            sample_size=prefix.sample_size,
            population_size=prefix.population_size,
            elapsed_seconds=prefix.elapsed_seconds,
            batches_processed=prefix.batches_processed,
            counters=self.scan_counters,
        )

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
