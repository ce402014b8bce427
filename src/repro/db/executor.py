"""Exact query executor over the columnar substrate.

The exact executor computes ground-truth answers used (a) to measure the
*actual* error of approximate answers in the experiments and (b) as the
computational kernel underneath the sampling-based AQP engines, which run the
same evaluation over sample rows and rescale.

Supported evaluation: denormalising fact-dimension joins, conjunctive (and,
for completeness, disjunctive) predicates, group-by over stored or derived
attributes, the aggregates SUM / COUNT / AVG / MIN / MAX / FREQ, and HAVING
clauses expressed over output column names.

Group-by execution runs through the factorized kernel of
:mod:`repro.db.groupby` by default: every measure expression is evaluated
once per query and all (group, aggregate) cells are computed by segment
reductions in one pass over the selected rows.  ``ExactExecutor(catalog,
vectorized=False)`` restores the original per-row loop (one full-length
boolean mask and one measure evaluation per group), which the property tests
and the query-engine benchmark compare against.

Vectorized scans run through the partitioned storage layer: zone maps prune
partitions, the predicate is evaluated once per run of adjacent survivors
(:mod:`repro.db.scan`) on the calling thread, and measure expressions are evaluated only over the selected rows.  The merge
discipline of the scan driver keeps every answer byte-identical to a
single-pass whole-table evaluation (with nothing pruned the scan *is* one
whole-table run, cut only at the morsel cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.db.catalog import Catalog
from repro.db.expressions import (
    evaluate_expression,
    evaluate_expression_at,
    evaluate_predicate,
)
from repro.db.groupby import factorize, iter_groups_legacy, normalize_value, segment_aggregate
from repro.db.having import compile_row_predicate, evaluate_row_predicate
from repro.db.scan import ScanCounters, ScanReport, scan_selected
from repro.db.table import Table
from repro.errors import ExpressionError
from repro.sqlparser import ast

Value = Union[int, float, str]

# Backwards-compatible aliases: these helpers historically lived here and are
# now shared via repro.db.groupby / repro.db.having.
_normalize_value = normalize_value
_evaluate_row_predicate = evaluate_row_predicate


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


def compute_aggregate(
    aggregate: ast.Aggregate,
    table: Table,
    mask: np.ndarray,
    total_rows: int,
) -> float:
    """Compute one aggregate over the rows of ``table`` selected by ``mask``.

    ``total_rows`` is the cardinality used to normalise FREQ(*) (the paper's
    internal aggregate: the fraction of the table's tuples that satisfy the
    predicate).
    """
    selected = int(mask.sum())
    values = None
    if (
        selected > 0
        and not aggregate.is_star
        and aggregate.function not in _COUNTING_FUNCTIONS
    ):
        values = np.asarray(
            evaluate_expression(aggregate.argument, table), dtype=np.float64
        )
    return _scalar_aggregate(aggregate.function, values, mask, selected, total_rows)


def _scalar_aggregate(
    function: ast.AggregateFunction,
    values: np.ndarray | None,
    mask: np.ndarray,
    selected: int,
    total_rows: int,
) -> float:
    """The no-GROUP-BY cell of one aggregate, from a pre-evaluated measure."""
    if function is ast.AggregateFunction.COUNT:
        return float(selected)
    if function is ast.AggregateFunction.FREQ:
        if total_rows <= 0:
            return 0.0
        return float(selected) / float(total_rows)
    if selected == 0:
        # SQL semantics: SUM/AVG/MIN/MAX over an empty set is NULL; the
        # experiments treat it as 0 so error metrics stay well defined.
        return 0.0
    if function in (
        ast.AggregateFunction.SUM,
        ast.AggregateFunction.AVG,
        ast.AggregateFunction.MIN,
        ast.AggregateFunction.MAX,
    ):
        assert values is not None
        chosen = values[mask]
        if function is ast.AggregateFunction.SUM:
            return float(chosen.sum())
        if function is ast.AggregateFunction.AVG:
            return float(chosen.mean())
        if function is ast.AggregateFunction.MIN:
            return float(chosen.min())
        return float(chosen.max())
    raise ExpressionError(f"unknown aggregate function {function}")


def _scalar_aggregate_selected(
    function: ast.AggregateFunction,
    values_selected: np.ndarray | None,
    selected: int,
    total_rows: int,
) -> float:
    """The no-GROUP-BY cell of one aggregate from selected-row measures.

    ``values_selected`` is the measure evaluated at the selected rows in
    ascending row order -- element-identical to ``values[mask]`` of
    :func:`_scalar_aggregate`, so the reductions are bit-identical.
    """
    if function is ast.AggregateFunction.COUNT:
        return float(selected)
    if function is ast.AggregateFunction.FREQ:
        if total_rows <= 0:
            return 0.0
        return float(selected) / float(total_rows)
    if selected == 0:
        return 0.0
    if function in (
        ast.AggregateFunction.SUM,
        ast.AggregateFunction.AVG,
        ast.AggregateFunction.MIN,
        ast.AggregateFunction.MAX,
    ):
        assert values_selected is not None
        if function is ast.AggregateFunction.SUM:
            return float(values_selected.sum())
        if function is ast.AggregateFunction.AVG:
            return float(values_selected.mean())
        if function is ast.AggregateFunction.MIN:
            return float(values_selected.min())
        return float(values_selected.max())
    raise ExpressionError(f"unknown aggregate function {function}")


class ExactExecutor:
    """Executes queries exactly against a catalog (or a single wide table).

    ``vectorized=True`` (the default) routes group-by aggregation through the
    factorized kernel; ``vectorized=False`` keeps the original per-row loop
    for comparison benchmarks and equivalence tests.

    The vectorized path evaluates predicates morsel-by-morsel with zone-map
    pruning and restricts measure evaluation to the selected rows.  Results
    are byte-identical in both configurations.  Scan accounting accumulates
    in :attr:`scan_counters`, and the report of the most recent scan is kept
    in :attr:`last_scan_report`.
    """

    def __init__(
        self,
        catalog: Catalog,
        vectorized: bool = True,
        scan_counters: ScanCounters | None = None,
    ):
        self.catalog = catalog
        self.vectorized = vectorized
        # Shareable so an owning service can aggregate all of its scans
        # (exact and sample-based) into one per-service accounting stream.
        self.scan_counters = scan_counters if scan_counters is not None else ScanCounters()
        self.last_scan_report: ScanReport | None = None

    # ------------------------------------------------------------------ public

    def execute(self, query: ast.Query) -> QueryResult:
        """Execute ``query`` and return its exact result."""
        table = self.catalog.denormalize(query)
        return self.execute_on_table(query, table, total_rows=len(table))

    def execute_on_table(
        self, query: ast.Query, table: Table, total_rows: int | None = None
    ) -> QueryResult:
        """Execute ``query`` against an explicit (already denormalised) table.

        ``total_rows`` overrides the cardinality used for FREQ(*); the AQP
        engines pass the sample size here so FREQ stays a fraction of the rows
        actually scanned.
        """
        total = len(table) if total_rows is None else total_rows
        aggregate_items = [item for item in query.select if item.is_aggregate]
        aggregate_names = tuple(item.output_name for item in aggregate_items)
        group_columns = tuple(column.name for column in query.group_by)

        result = QueryResult(group_columns=group_columns, aggregate_names=aggregate_names)
        if self.vectorized:
            # The scan driver returns the selected row indices directly:
            # zone maps skip partitions no row of which can match.  Merge
            # order is row order, so the selection is identical to a
            # whole-table evaluation.
            selected, self.last_scan_report = scan_selected(
                table, query.where, self.scan_counters
            )
            num_selected = len(selected)

            # Each measure expression is evaluated once per query -- and only
            # at the selected rows, so measure work is proportional to what
            # the pruned scan kept.  Evaluation is deferred until a non-empty
            # selection needs it, matching the legacy path (COUNT/FREQ never
            # touch their argument; SUM/AVG/MIN/MAX over an empty selection
            # return 0.0 without evaluating).
            def measure_for(item: ast.SelectItem) -> np.ndarray | None:
                expression = item.expression
                if expression.is_star or expression.function in _COUNTING_FUNCTIONS:
                    return None
                return np.asarray(
                    evaluate_expression_at(expression.argument, table, selected),
                    dtype=np.float64,
                )

            if not group_columns:
                aggregates = {
                    item.output_name: _scalar_aggregate_selected(
                        item.expression.function,
                        measure_for(item) if num_selected else None,
                        num_selected,
                        total,
                    )
                    for item in aggregate_items
                }
                result.rows.append(ResultRow(group_values=(), aggregates=aggregates))
            else:
                grouped = factorize(table, None, group_columns, selected_indices=selected)
                if grouped is not None:
                    cells = {
                        item.output_name: segment_aggregate(
                            item.expression.function,
                            grouped,
                            measure_for(item),
                            total,
                            values_are_selected=True,
                        )
                        for item in aggregate_items
                    }
                    for group, key in enumerate(grouped.keys):
                        aggregates = {
                            name: float(values[group]) for name, values in cells.items()
                        }
                        result.rows.append(
                            ResultRow(group_values=key, aggregates=aggregates)
                        )
        else:
            mask = evaluate_predicate(query.where, table)
            if not group_columns:
                aggregates = {
                    item.output_name: compute_aggregate(item.expression, table, mask, total)
                    for item in aggregate_items
                }
                result.rows.append(ResultRow(group_values=(), aggregates=aggregates))
            else:
                for group_values, group_mask in self._iter_groups(table, mask, group_columns):
                    aggregates = {
                        item.output_name: compute_aggregate(
                            item.expression, table, group_mask, total
                        )
                        for item in aggregate_items
                    }
                    result.rows.append(
                        ResultRow(group_values=group_values, aggregates=aggregates)
                    )
        if query.having is not None:
            matches = compile_row_predicate(query.having, query)
            result.rows = [
                row for row in result.rows if matches(row.group_values, row.aggregates)
            ]
        return result

    # ----------------------------------------------------------------- helpers

    def _iter_groups(
        self, table: Table, mask: np.ndarray, group_columns: Sequence[str]
    ):
        """Yield (group value tuple, boolean mask) pairs in first-seen order.

        The retained legacy grouping loop (see :mod:`repro.db.groupby`).
        """
        yield from iter_groups_legacy(table, mask, group_columns)
