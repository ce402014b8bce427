"""Exact query executor over the columnar substrate.

The exact executor computes the ground-truth answers that the experiments
measure the *actual* error of approximate answers against, and serves the
service's exact route.  The sampling-based AQP engines
(:mod:`repro.aqp.evaluation`) run the same scan and group-by kernel over
sample rows and form CLT estimates instead of exact aggregates.

Supported evaluation: denormalising fact-dimension joins, conjunctive (and,
for completeness, disjunctive) predicates, group-by over stored or derived
attributes, the aggregates SUM / COUNT / AVG / MIN / MAX / FREQ, and HAVING
clauses expressed over output column names.

Aggregation runs through the factorized kernel of :mod:`repro.db.groupby`,
with or without GROUP BY (a scalar query is one segment keyed ``()``): every
measure expression is evaluated once per query and all (group, aggregate)
cells are computed by segment reductions in one pass over the selected rows.

Scans run through the partitioned storage layer: zone maps prune partitions,
the predicate is evaluated once per run of adjacent survivors
(:mod:`repro.db.scan`) on the calling thread, and measure expressions are
evaluated only over the selected rows.  The merge discipline of the scan
driver keeps every answer byte-identical to a single-pass whole-table
evaluation (with nothing pruned the scan *is* one whole-table run, cut only
at the morsel cap); ``tests/oracles.py`` holds the row-loop reference the
property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.db.catalog import Catalog
from repro.db.expressions import evaluate_expression_at
from repro.db.groupby import factorize, segment_aggregate
from repro.db.having import compile_row_predicate
from repro.db.scan import ScanCounters, ScanReport, scan_selected
from repro.deadline import UNLIMITED, Limits
from repro.sqlparser import ast

Value = Union[int, float, str]


@dataclass(frozen=True)
class ResultRow:
    """One output row: group-by values plus aggregate values by output name."""

    group_values: tuple[Value, ...]
    aggregates: dict[str, float]

    def value(self, name: str) -> float:
        return self.aggregates[name]


@dataclass
class QueryResult:
    """Result of executing a query: column metadata plus rows."""

    group_columns: tuple[str, ...]
    aggregate_names: tuple[str, ...]
    rows: list[ResultRow] = field(default_factory=list)

    def scalar(self) -> float:
        """The single aggregate value of a one-row, one-aggregate result."""
        if len(self.rows) != 1 or len(self.aggregate_names) != 1:
            raise ValueError(
                "scalar() requires exactly one row and one aggregate, got "
                f"{len(self.rows)} rows x {len(self.aggregate_names)} aggregates"
            )
        return self.rows[0].aggregates[self.aggregate_names[0]]

    def group_rows(self) -> list[tuple[Value, ...]]:
        """Group value tuples in row order (input to query decomposition)."""
        return [row.group_values for row in self.rows]

    def by_group(self) -> dict[tuple[Value, ...], ResultRow]:
        """Index rows by group values for comparisons across engines."""
        return {row.group_values: row for row in self.rows}

    def __len__(self) -> int:
        return len(self.rows)


# Aggregate functions that never evaluate their argument: COUNT(col) counts
# rows without touching col (which may not even be numeric), FREQ(*) is a
# row fraction.
_COUNTING_FUNCTIONS = (ast.AggregateFunction.COUNT, ast.AggregateFunction.FREQ)

_NO_ROWS = np.zeros(0, dtype=np.float64)


class ExactExecutor:
    """Executes queries exactly against a catalog (or a single wide table).

    Predicates are evaluated once per run of adjacent partitions that
    survive zone-map pruning, and measure evaluation is restricted to the
    selected rows.  Scan accounting accumulates in :attr:`scan_counters`,
    and the report of the most recent scan is kept in
    :attr:`last_scan_report`.
    """

    def __init__(
        self,
        catalog: Catalog,
        scan_counters: ScanCounters | None = None,
    ):
        self.catalog = catalog
        # Shareable so an owning service can aggregate all of its scans
        # (exact and sample-based) into one per-service accounting stream.
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()
        self.last_scan_report: ScanReport | None = None

    # ------------------------------------------------------------------ public

    def execute(self, query: ast.Query, limits: Limits = UNLIMITED) -> QueryResult:
        """Execute ``query`` and return its exact result; the scan polls ``limits``."""
        table = self.catalog.denormalize(query)
        aggregate_items = [item for item in query.select if item.is_aggregate]
        aggregate_names = tuple(item.output_name for item in aggregate_items)
        group_columns = tuple(column.name for column in query.group_by)

        result = QueryResult(group_columns=group_columns, aggregate_names=aggregate_names)
        # The scan driver returns the selected row indices directly:
        # zone maps skip partitions no row of which can match.  Merge
        # order is row order, so the selection is identical to a
        # whole-table evaluation.
        selected, self.last_scan_report = scan_selected(
            table, query.where, self.scan_counters, limits
        )

        # Each measure expression is evaluated once per query -- and only
        # at the selected rows, so measure work is proportional to what
        # the pruned scan kept.  COUNT/FREQ never touch their argument, and
        # an empty selection (a scalar query's one empty group) evaluates
        # nothing.
        def measure_for(item: ast.SelectItem) -> np.ndarray | None:
            expression = item.expression
            if expression.is_star or expression.function in _COUNTING_FUNCTIONS:
                return None
            if not len(selected):
                return _NO_ROWS
            return np.asarray(
                evaluate_expression_at(expression.argument, table, selected),
                dtype=np.float64,
            )

        # A scalar query is one group keyed () over the whole selection.
        grouped = factorize(table, None, group_columns, selected_indices=selected)
        if grouped is not None:
            cells = {
                item.output_name: segment_aggregate(
                    item.expression.function,
                    grouped,
                    measure_for(item),
                    len(table),
                    values_are_selected=True,
                )
                for item in aggregate_items
            }
            for group, key in enumerate(grouped.keys):
                aggregates = {name: float(values[group]) for name, values in cells.items()}
                result.rows.append(ResultRow(group_values=key, aggregates=aggregates))
        if query.having is not None:
            matches = compile_row_predicate(query.having, query)
            result.rows = [
                row for row in result.rows if matches(row.group_values, row.aggregates)
            ]
        return result
