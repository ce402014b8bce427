"""Brute-force reference implementations the equivalence tests compare against.

Each function here is the slow, obviously-correct form of a production fast
path: a whole-table predicate mask, a dict of first-seen group keys and one
``values[group_mask]`` reduction per cell (vs. the partitioned scan and the
factorized group-by kernel), and a per-row comparison for object columns
(vs. dictionary-encoded predicates).  The production paths must reproduce
them byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.aqp.evaluation import _estimate_cell
from repro.aqp.types import AQPRow
from repro.db.executor import QueryResult, ResultRow
from repro.db.expressions import evaluate_expression, evaluate_predicate
from repro.db.groupby import normalize_value
from repro.db.having import compile_row_predicate
from repro.sqlparser import ast

_COUNTING = (ast.AggregateFunction.COUNT, ast.AggregateFunction.FREQ)


def iter_groups(table, mask, group_columns):
    """(key tuple, boolean mask) pairs in first-seen order of the selected rows."""
    if not group_columns:
        return [((), mask)]
    columns = [table.column(name) for name in group_columns]
    groups: dict[tuple, list[int]] = {}
    for index in np.flatnonzero(mask):
        key = tuple(normalize_value(column[index]) for column in columns)
        groups.setdefault(key, []).append(int(index))
    result = []
    for key, indices in groups.items():
        group_mask = np.zeros(len(table), dtype=bool)
        group_mask[indices] = True
        result.append((key, group_mask))
    return result


def _aggregate(function, values, mask, total_rows):
    selected = int(mask.sum())
    if function is ast.AggregateFunction.COUNT:
        return float(selected)
    if function is ast.AggregateFunction.FREQ:
        return float(selected) / float(total_rows) if total_rows > 0 else 0.0
    if selected == 0:
        return 0.0
    chosen = values[mask]
    reduce = {
        ast.AggregateFunction.SUM: np.sum,
        ast.AggregateFunction.AVG: np.mean,
        ast.AggregateFunction.MIN: np.min,
        ast.AggregateFunction.MAX: np.max,
    }[function]
    return float(reduce(chosen))


def _measure(item, table):
    aggregate = item.expression
    if aggregate.is_star or aggregate.function in _COUNTING:
        return None
    return np.asarray(evaluate_expression(aggregate.argument, table), dtype=np.float64)


def execute(catalog, query) -> QueryResult:
    """Exact answer of ``query`` by the row loop (what ``ExactExecutor`` returns)."""
    table = catalog.denormalize(query)
    items = [item for item in query.select if item.is_aggregate]
    group_columns = tuple(column.name for column in query.group_by)
    result = QueryResult(group_columns, tuple(item.output_name for item in items))
    mask = evaluate_predicate(query.where, table)
    # Measures are evaluated only when some row is selected: COUNT(col) and
    # empty selections never touch a (possibly non-numeric) argument.
    measures = {item.output_name: mask.any() and _measure(item, table) for item in items}
    for key, group_mask in iter_groups(table, mask, group_columns):
        aggregates = {
            item.output_name: _aggregate(
                item.expression.function, measures[item.output_name], group_mask, len(table)
            )
            for item in items
        }
        result.rows.append(ResultRow(key, aggregates))
    if query.having is not None:
        matches = compile_row_predicate(query.having, query)
        result.rows = [row for row in result.rows if matches(row.group_values, row.aggregates)]
    return result


def estimate(query, table, scanned_rows, population_size) -> list[AQPRow]:
    """The rows ``estimate_answer`` builds, by one boolean mask per group."""
    items = [item for item in query.select if item.is_aggregate]
    group_columns = tuple(column.name for column in query.group_by)
    mask = evaluate_predicate(query.where, table)
    measures = {}
    for item in items:
        values, spread = None, 1.0
        if not item.expression.is_star:
            values = np.asarray(
                evaluate_expression(item.expression.argument, table), dtype=np.float64
            )
            spread = float(values.std(ddof=0)) if len(values) else 1.0
        measures[item.output_name] = (values, spread)
    rows = []
    for key, group_mask in iter_groups(table, mask, group_columns):
        estimates = {}
        for item in items:
            values, spread = measures[item.output_name]
            estimates[item.output_name] = _estimate_cell(
                item.expression,
                item.output_name,
                selected=int(group_mask.sum()),
                scanned_rows=scanned_rows,
                population_size=population_size,
                group_values=None if values is None else values[group_mask],
                fallback_std=spread,
            )
        rows.append(AQPRow(group_values=key, estimates=estimates))
    if query.having is not None:
        matches = compile_row_predicate(query.having, query)
        rows = [
            row
            for row in rows
            if matches(row.group_values, {n: e.value for n, e in row.estimates.items()})
        ]
    return rows


def object_comparison_mask(column, op: ast.ComparisonOp, literal) -> np.ndarray:
    """``column <op> literal`` decided row by row with Python comparisons."""
    compare = {
        ast.ComparisonOp.EQ: lambda v: v == literal,
        ast.ComparisonOp.NE: lambda v: v != literal,
        ast.ComparisonOp.LT: lambda v: v < literal,
        ast.ComparisonOp.LE: lambda v: v <= literal,
        ast.ComparisonOp.GT: lambda v: v > literal,
        ast.ComparisonOp.GE: lambda v: v >= literal,
    }[op]
    return np.asarray([compare(v) for v in column], dtype=bool)
