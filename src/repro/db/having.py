"""Shared HAVING row-predicate evaluation.

HAVING predicates are evaluated against *output* rows (group values plus
aggregate values by output name), not against table columns, so they need a
row-at-a-time evaluator distinct from :mod:`repro.db.expressions`.  Both the
exact executor and the AQP evaluation previously carried their own copies;
this module holds the single implementation.

:func:`compile_row_predicate` compiles a predicate once per query into a
closure over ``(group_values, aggregates)``.  Compilation hoists everything
that the per-row interpreter used to redo per row: the ``set`` of an IN
list, the column-vs-literal orientation of comparisons, and the resolution
of output names to either an aggregate or a group-column position.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Sequence, Union

from repro.errors import ExpressionError
from repro.sqlparser import ast

Value = Union[int, float, str]

# A compiled predicate over (group_values, aggregates-by-output-name).
RowPredicate = Callable[[Sequence[Value], Mapping[str, float]], bool]

_COMPARISONS: dict[ast.ComparisonOp, Callable[[object, object], bool]] = {
    ast.ComparisonOp.EQ: operator.eq,
    ast.ComparisonOp.NE: operator.ne,
    ast.ComparisonOp.LT: operator.lt,
    ast.ComparisonOp.LE: operator.le,
    ast.ComparisonOp.GT: operator.gt,
    ast.ComparisonOp.GE: operator.ge,
}

_FLIPPED = {
    ast.ComparisonOp.LT: ast.ComparisonOp.GT,
    ast.ComparisonOp.LE: ast.ComparisonOp.GE,
    ast.ComparisonOp.GT: ast.ComparisonOp.LT,
    ast.ComparisonOp.GE: ast.ComparisonOp.LE,
}


def _compile_column(query: ast.Query, name: str) -> Callable[[Sequence[Value], Mapping[str, float]], Value]:
    """Resolve an output column name once: aggregates first, then group columns."""
    aggregate_names = {item.output_name for item in query.select if item.is_aggregate}
    if name in aggregate_names:
        return lambda group_values, aggregates: aggregates[name]
    group_names = [column.name for column in query.group_by]
    if name in group_names:
        position = group_names.index(name)
        return lambda group_values, aggregates: group_values[position]
    raise ExpressionError(f"HAVING references unknown output column {name!r}")


def compile_row_predicate(
    predicate: ast.Predicate | None, query: ast.Query
) -> RowPredicate:
    """Compile a HAVING predicate into a closure over one output row."""
    if predicate is None:
        return lambda group_values, aggregates: True
    if isinstance(predicate, ast.And):
        children = [compile_row_predicate(p, query) for p in predicate.predicates]
        return lambda gv, agg: all(child(gv, agg) for child in children)
    if isinstance(predicate, ast.Or):
        children = [compile_row_predicate(p, query) for p in predicate.predicates]
        return lambda gv, agg: any(child(gv, agg) for child in children)
    if isinstance(predicate, ast.Not):
        inner = compile_row_predicate(predicate.predicate, query)
        return lambda gv, agg: not inner(gv, agg)
    if isinstance(predicate, ast.Comparison):
        left, op, right = predicate.left, predicate.op, predicate.right
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = _FLIPPED.get(op, op)
        if not isinstance(left, ast.ColumnRef) or not isinstance(right, ast.Literal):
            raise ExpressionError("HAVING comparisons must be column vs literal")
        getter = _compile_column(query, left.name)
        compare = _COMPARISONS[op]
        expected = right.value
        return lambda gv, agg: compare(getter(gv, agg), expected)
    if isinstance(predicate, ast.InPredicate):
        getter = _compile_column(query, predicate.column.name)
        allowed = set(predicate.values)
        if predicate.negated:
            return lambda gv, agg: getter(gv, agg) not in allowed
        return lambda gv, agg: getter(gv, agg) in allowed
    if isinstance(predicate, ast.BetweenPredicate):
        getter = _compile_column(query, predicate.column.name)
        low, high = predicate.low, predicate.high
        return lambda gv, agg: low <= getter(gv, agg) <= high
    raise ExpressionError(
        f"unsupported HAVING predicate of type {type(predicate).__name__}"
    )

