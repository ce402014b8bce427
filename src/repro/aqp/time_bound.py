"""Time-bound AQP engine (Appendix C.2's "NoLearn").

Instead of refining answers continuously, a time-bound engine takes a time
budget from the user, predicts the largest sample prefix it can scan within
that budget (using the cost model), and returns a single answer computed on
that prefix together with its CLT error estimate.

When Verdict sits on top of such an engine it shrinks the budget it passes
down by its own (small) inference overhead epsilon (Section 7); the
experiment harness models that by subtracting ``verdict_overhead_s`` from the
budget before calling this engine.
"""

from __future__ import annotations

from repro.aqp.evaluation import estimate_answer
from repro.aqp.types import AQPAnswer
from repro.config import CostModelConfig, SamplingConfig
from repro.db.catalog import Catalog
from repro.db.sampling import SampleStore
from repro.db.scan import ScanCounters
from repro.errors import AQPError
from repro.sqlparser import ast


class TimeBoundEngine:
    """Single-shot AQP engine that fits its sample size to a time budget."""

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
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()

    def execute(self, query: ast.Query, time_budget_s: float) -> AQPAnswer:
        """Answer ``query`` within (model-time) ``time_budget_s`` seconds."""
        if time_budget_s <= 0:
            raise AQPError("time budget must be positive")
        if not self.catalog.has_table(query.table):
            raise AQPError(f"unknown table {query.table!r}")

        sample = self.samples.sample_for(query.table)
        population_size = self.catalog.cardinality(query.table)
        dimension_rows = self.catalog.dimension_rows(query.joins)

        rows = self.cost_model.rows_for_budget(time_budget_s, dimension_rows)
        rows = max(1, min(rows, sample.sample_size))
        prefix = sample.prefix(rows)
        # Sample-prefix joins are memoised in the catalog's denormalization
        # cache; repeated budgets on the same sample skip the join entirely.
        joined = self.catalog.join_all(
            prefix, query.joins, cache_token=(sample.cache_token, rows)
        )

        return estimate_answer(
            query=query,
            scanned_table=joined,
            scanned_rows=len(joined),
            sample_size=sample.sample_size,
            population_size=population_size,
            elapsed_seconds=self.cost_model.charge(rows, dimension_rows),
            batches_processed=1,
            counters=self.scan_counters,
        )
