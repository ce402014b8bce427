"""Brute-force reference implementations the equivalence tests compare against.

Each function here is the slow, obviously-correct form of a production fast
path: a whole-table predicate mask, a dict of first-seen group keys and one
``values[group_mask]`` reduction per cell (vs. the partitioned scan and the
factorized group-by kernel), scalar CLT estimates formed cell by cell (vs.
the array estimators over all groups at once), a per-row Python decision of every predicate
over decoded values (vs. dictionary-code predicates), and the covariance
factor product taken
attribute by attribute as full arrays (vs. one memoised scalar for an
attribute neither side constrains).  The production paths must reproduce
them byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import linalg
from repro.core.kernel import se_average_factor
from repro.aqp.types import AggregateEstimate, AQPRow, InternalEstimates
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


def _freq_estimate(selected_rows, scanned_rows):
    if scanned_rows <= 0:
        return 0.0, 1.0
    p = selected_rows / scanned_rows
    p_err = min(max(p, 1.0 / (scanned_rows + 1)), 1.0 - 1.0 / (scanned_rows + 1))
    error = math.sqrt(p_err * (1.0 - p_err) / scanned_rows)
    return p, error


def _avg_estimate(values, fallback_std):
    values = np.asarray(values, dtype=np.float64)
    k = len(values)
    if k == 0:
        std = fallback_std if fallback_std is not None else 1.0
        return 0.0, max(std, 1e-12)
    mean = float(values.mean())
    if k == 1:
        std = fallback_std if fallback_std is not None else abs(mean)
        return mean, max(std, 1e-12)
    std = float(values.std(ddof=1))
    if std == 0.0 and fallback_std:
        std = min(fallback_std, abs(mean) if mean else fallback_std)
    error = std / math.sqrt(k)
    return mean, max(error, 0.0)


def _estimate_cell(
    aggregate, name, selected, scanned_rows, population_size, group_values, fallback_std
):
    """One (group, aggregate) cell by the scalar CLT formulas."""
    freq_value, freq_error = _freq_estimate(selected, scanned_rows)
    count_value, count_error = freq_value * population_size, freq_error * population_size

    avg = None
    if group_values is not None:
        avg = _avg_estimate(group_values, fallback_std=fallback_std or 1.0)

    function = aggregate.function
    if function is ast.AggregateFunction.FREQ:
        value, error = freq_value, freq_error
    elif function is ast.AggregateFunction.COUNT:
        value, error = count_value, count_error
    elif function is ast.AggregateFunction.AVG:
        value, error = avg
    elif function is ast.AggregateFunction.SUM:
        avg_value, avg_error = avg
        value = avg_value * count_value
        variance = (count_value * avg_error) ** 2 + (avg_value * count_error) ** 2
        error = math.sqrt(max(variance, 0.0))
    elif group_values is None or selected == 0:
        value, error = 0.0, 0.0
    else:
        value = float(
            group_values.min()
            if function is ast.AggregateFunction.MIN
            else group_values.max()
        )
        error = float(group_values.std(ddof=0)) if len(group_values) > 1 else abs(value)

    internal = InternalEstimates(
        freq_value=freq_value,
        freq_error=freq_error,
        avg_value=None if avg is None else avg[0],
        avg_error=None if avg is None else avg[1],
        selected_rows=selected,
        scanned_rows=scanned_rows,
        population_size=population_size,
    )
    return AggregateEstimate(
        name=name, function=function, value=value, error=error, internal=internal
    )


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


_COMPARE = {
    ast.ComparisonOp.EQ: lambda a, b: a == b,
    ast.ComparisonOp.NE: lambda a, b: a != b,
    ast.ComparisonOp.LT: lambda a, b: a < b,
    ast.ComparisonOp.LE: lambda a, b: a <= b,
    ast.ComparisonOp.GT: lambda a, b: a > b,
    ast.ComparisonOp.GE: lambda a, b: a >= b,
}

_ARITHMETIC = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def object_comparison_mask(column, op: ast.ComparisonOp, literal) -> np.ndarray:
    """``column <op> literal`` decided row by row with Python comparisons."""
    return np.asarray([_COMPARE[op](v, literal) for v in column], dtype=bool)


def predicate_mask(table, predicate) -> np.ndarray:
    """``evaluate_predicate``'s mask, decided row by row over decoded values.

    Supports what the equivalence tests query: AND / OR / NOT, comparisons
    of expressions built from columns, literals and ``+ - *``, IN, BETWEEN
    and LIKE.  Python semantics per row match the production ones: NaN
    compares unequal to everything and LIKE matches ``str(value)``.
    """
    from repro.db.expressions import _like_regex

    columns = {name: table.column(name).tolist() for name in table.column_names()}

    def value(expression, row):
        if isinstance(expression, ast.ColumnRef):
            return columns[expression.name][row]
        if isinstance(expression, ast.Literal):
            return expression.value
        return _ARITHMETIC[expression.op](
            float(value(expression.left, row)), float(value(expression.right, row))
        )

    def holds(node, row) -> bool:
        if isinstance(node, ast.And):
            return all(holds(child, row) for child in node.predicates)
        if isinstance(node, ast.Or):
            return any(holds(child, row) for child in node.predicates)
        if isinstance(node, ast.Not):
            return not holds(node.predicate, row)
        if isinstance(node, ast.Comparison):
            return _COMPARE[node.op](value(node.left, row), value(node.right, row))
        found = value(node.column, row)
        if isinstance(node, ast.InPredicate):
            return (found in set(node.values)) != node.negated
        if isinstance(node, ast.BetweenPredicate):
            return node.low <= found <= node.high
        matched = _like_regex(node.pattern).fullmatch(str(found)) is not None
        return matched != node.negated

    return np.asarray([holds(predicate, row) for row in range(len(table))], dtype=bool)


def factor_matrix(covariance, rows, cols=None) -> np.ndarray:
    """``SnippetCovariance.factor_matrix`` as one array product per attribute."""
    symmetric = cols is None
    row_encoding = covariance.encode(rows)
    col_encoding = row_encoding if symmetric else covariance.encode(cols)
    result = np.ones((row_encoding.size, col_encoding.size), dtype=np.float64)
    if result.size == 0:
        return result
    for name in row_encoding.numeric:
        result *= covariance.numeric_factor(name, row_encoding, col_encoding)
    for name in row_encoding.categorical:
        result *= covariance.categorical_factor(name, row_encoding, col_encoding)
    return linalg.symmetrize(result) if symmetric else result


def factor_diagonal(covariance, snippets) -> np.ndarray:
    """``SnippetCovariance.factor_diagonal`` with every attribute as an array."""
    encoding = covariance.encode(snippets)
    result = np.ones(encoding.size, dtype=np.float64)
    if encoding.size == 0:
        return result
    for name, column in encoding.numeric.items():
        scale = covariance.model.length_scale(name, covariance.domains)
        base = se_average_factor(column.lows, column.highs, column.lows, column.highs, scale)
        result *= np.asarray(base, dtype=np.float64)[column.index]
    for column in encoding.categorical.values():
        sizes = np.array([c.size for c in column.constraints], dtype=np.float64)
        result *= (sizes / np.square(np.maximum(sizes, 1.0)))[column.index]
    return result
