"""Online aggregation AQP engine ("NoLearn" in Section 8.1).

The engine creates uniform random samples of fact tables offline and splits
them into batches.  One batch loop (``_prefixes``) scans the batches in order
and joins each to the dimension tables, yielding the growing joined prefix.
:meth:`OnlineAggregationEngine.run` estimates every prefix -- an approximate
answer and CLT error bound after the first batch, refined batch by batch --
while :meth:`~OnlineAggregationEngine.final_answer` estimates only the last
prefix, since recording a query keeps nothing else.  Runtime is accounted
with ``CostModelConfig.charge``: planning overhead is charged once per query,
dimension tables joined to the sample are charged once (they are not
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
from repro.db.sampling import JoinedSample, SampleStore, TableSample
from repro.db.scan import ScanCounters
from repro.db.table import Table
from repro.deadline import UNLIMITED, Limits
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
    elapsed_seconds: float  # cumulative model time up to this batch
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
        self.cost_model = cost_model or CostModelConfig()
        # Per-owner scan attribution: the owning service passes its shared
        # counters so sample scans are booked to that service.
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()

    # ------------------------------------------------------------------ public

    def run(self, query: ast.Query, limits: Limits = UNLIMITED) -> Iterator[AQPAnswer]:
        """Yield cumulative approximate answers, one per processed batch.

        Every joined prefix of :meth:`_prefixes` is estimated (scan, group-by
        and CLT bounds), so a caller can stop at any batch with a valid
        answer.  A caller that only keeps the last answer should use
        :meth:`final_answer`, which estimates that prefix alone.  The batch
        loop and each estimate's scan poll ``limits``.
        """
        for prefix in self._prefixes(query, limits):
            yield self._estimate(query, prefix, limits)

    def execute(self, query: ast.Query, limits: Limits = UNLIMITED) -> list[AQPAnswer]:
        """Every answer of :meth:`run`, one per batch.

        When the request deadline in ``limits`` expires between batches the
        answers collected so far are returned -- every prefix is a valid
        estimate ± error, so an expired deadline degrades accuracy, not
        correctness; with no batch processed yet the
        :class:`~repro.errors.DeadlineExceeded` propagates (there is nothing
        to degrade to).
        """
        answers: list[AQPAnswer] = []
        try:
            for answer in self.run(query, limits):
                answers.append(answer)
        except DeadlineExceeded:
            if not answers:
                raise
        return answers

    def final_answer(self, query: ast.Query, limits: Limits = UNLIMITED) -> AQPAnswer:
        """The answer over the whole sample, estimated once.

        The batches are joined exactly as :meth:`run` joins them, but only
        the last prefix reached is estimated.  When the deadline in
        ``limits`` expires, the per-batch poll stops the loop and the last
        prefix joined before it is estimated; with no batch joined the
        :class:`~repro.errors.DeadlineExceeded` propagates.  That one
        estimate runs without the deadline (cancellation still aborts it):
        it is the answer the loop already paid for, and an expired deadline
        degrades accuracy, never the answer itself.
        """
        last: _Prefix | None = None
        try:
            for last in self._prefixes(query, limits):
                pass
        except DeadlineExceeded:
            if last is None:
                raise
        if last is None:
            raise AQPError("online aggregation produced no answers")
        return self._estimate(query, last, Limits(cancel=limits.cancel, span=limits.span))

    def first_answer(self, query: ast.Query) -> AQPAnswer:
        """The answer after the first batch only (cheapest, least accurate)."""
        for answer in self.run(query):
            return answer
        raise AQPError("online aggregation produced no answers")

    # ----------------------------------------------------------------- batches

    def _prefixes(self, query: ast.Query, limits: Limits) -> Iterator[_Prefix]:
        """Yield the joined sample prefix after every batch.

        Each batch polls ``limits``, passes the ``aqp.batch`` fault
        point and charges the cost model before it is joined.  The dimension
        joins are computed once per (sample identity, join clauses) over the
        whole sample and memoised in the catalog's denormalization cache as
        a :class:`~repro.db.sampling.JoinedSample`; every batch's joined
        prefix is a view of it.  The foreign-key join is row-wise and
        order-preserving, so that view equals joining the batch prefix.
        Sample invalidation (after a data append) issues a fresh sample
        identity, so stale prefixes can never be served.
        """
        if not self.catalog.has_table(query.table):
            raise AQPError(f"unknown table {query.table!r}")
        sample = self.samples.sample_for(query.table)
        population_size = self.catalog.cardinality(query.table)
        dimension_rows = self.catalog.dimension_rows(query.joins)

        elapsed = 0.0
        previous_rows = 0
        joined_sample: JoinedSample | None = None
        for batch_number, (rows, prefix) in enumerate(sample.iter_batch_prefixes(), start=1):
            # Cooperative cancellation: one poll per batch.  Callers holding
            # a previous batch's estimate catch a DeadlineExceeded and serve
            # that prefix estimate as a flagged partial answer.
            limits.check(f"online aggregation batch {batch_number}")
            faults.inject("aqp.batch", batch=batch_number)
            first_batch = batch_number == 1
            elapsed += self.cost_model.charge(
                rows - previous_rows,
                dimension_rows if first_batch else 0,
                planning=first_batch,
            )
            if not query.joins:
                joined = prefix
            else:
                if joined_sample is None:
                    joined_sample = self._joined_sample(query, sample)
                joined = joined_sample.prefix(rows)
            previous_rows = rows
            yield _Prefix(joined, elapsed, batch_number, sample.sample_size, population_size)

    def _estimate(self, query: ast.Query, prefix: _Prefix, limits: Limits) -> AQPAnswer:
        return estimate_answer(
            query=query,
            scanned_table=prefix.joined,
            scanned_rows=len(prefix.joined),
            sample_size=prefix.sample_size,
            population_size=prefix.population_size,
            elapsed_seconds=prefix.elapsed_seconds,
            batches_processed=prefix.batches_processed,
            counters=self.scan_counters,
            limits=limits,
        )

    # ----------------------------------------------------------------- helpers

    def _joined_sample(self, query: ast.Query, sample: TableSample) -> JoinedSample:
        """``sample`` joined along ``query``'s joins, from the catalog's cache."""
        joined = self.catalog.cached_join(sample.cache_token, query.joins)
        if joined is None:
            joined = JoinedSample(*self.catalog.join_origins(sample.sample, query.joins))
            self.catalog.store_join(sample.cache_token, query.joins, joined)
        return joined
