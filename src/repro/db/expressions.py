"""Evaluation of scalar expressions and predicates against columnar tables.

Scalar expressions (columns, literals, arithmetic over them) evaluate to NumPy
arrays aligned with the table rows; predicates evaluate to boolean masks.
The evaluator is shared by the exact executor (ground truth) and by the
sampling-based AQP engines, which apply the same predicates to sample rows.

Predicates over categorical columns never decode them: the predicate is
applied once per value of the column's dictionary (:mod:`repro.db.table`;
memoised per dictionary and predicate leaf) and the per-value booleans are
gathered through the table's int64 codes.  The property tests compare them
with per-row loops (``tests/oracles.py``).
An ordered comparison between strings and numbers raises
:class:`~repro.errors.ExpressionError`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Hashable, Union

import numpy as np

from repro.db.table import Dictionary, Table
from repro.errors import ExpressionError
from repro.sqlparser import ast


def evaluate_expression(expression: ast.Expression, table: Table) -> np.ndarray:
    """Evaluate a scalar expression to an array aligned with ``table`` rows."""
    if isinstance(expression, ast.ColumnRef):
        if not table.has_column(expression.name):
            raise ExpressionError(
                f"unknown column {expression.name!r} in table {table.name!r}"
            )
        return table.column(expression.name)
    if isinstance(expression, ast.Literal):
        return np.full(len(table), expression.value)
    if isinstance(expression, ast.Star):
        raise ExpressionError("'*' can only appear inside COUNT(*) / FREQ(*)")
    if isinstance(expression, ast.BinaryOp):
        left = np.asarray(evaluate_expression(expression.left, table), dtype=np.float64)
        right = np.asarray(evaluate_expression(expression.right, table), dtype=np.float64)
        if expression.op == "+":
            return left + right
        if expression.op == "-":
            return left - right
        if expression.op == "*":
            return left * right
        if expression.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                result = np.divide(left, right)
            return np.where(np.isfinite(result), result, 0.0)
        raise ExpressionError(f"unknown arithmetic operator {expression.op!r}")
    raise ExpressionError(f"cannot evaluate expression of type {type(expression).__name__}")


def evaluate_expression_at(
    expression: ast.Expression, table: Table, indices: np.ndarray
) -> np.ndarray:
    """Evaluate a scalar expression at the given row indices only.

    Element-identical to ``evaluate_expression(expression, table)[indices]``
    (every operation is elementwise), but the work is proportional to
    ``len(indices)`` -- the partitioned executor uses this so measure
    evaluation scales with the rows a pruned scan kept, not the table size.
    """
    if isinstance(expression, ast.ColumnRef):
        if not table.has_column(expression.name):
            raise ExpressionError(
                f"unknown column {expression.name!r} in table {table.name!r}"
            )
        return table.column_at(expression.name, indices)
    if isinstance(expression, ast.Literal):
        return np.full(len(indices), expression.value)
    if isinstance(expression, ast.Star):
        raise ExpressionError("'*' can only appear inside COUNT(*) / FREQ(*)")
    if isinstance(expression, ast.BinaryOp):
        left = np.asarray(
            evaluate_expression_at(expression.left, table, indices), dtype=np.float64
        )
        right = np.asarray(
            evaluate_expression_at(expression.right, table, indices), dtype=np.float64
        )
        if expression.op == "+":
            return left + right
        if expression.op == "-":
            return left - right
        if expression.op == "*":
            return left * right
        if expression.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                result = np.divide(left, right)
            return np.where(np.isfinite(result), result, 0.0)
        raise ExpressionError(f"unknown arithmetic operator {expression.op!r}")
    raise ExpressionError(f"cannot evaluate expression of type {type(expression).__name__}")


def _comparison_mask(
    values: np.ndarray, op: ast.ComparisonOp, literal: Union[int, float, str]
) -> np.ndarray:
    """Boolean mask for ``values <op> literal`` over numeric values.

    ``values`` is a numeric column or an evaluated expression (categorical
    columns go through :func:`_categorical_leaf_mask`).  A string literal
    never equals a number, and ordering numbers against it is a query error.
    """
    if isinstance(literal, str):
        if op is ast.ComparisonOp.EQ:
            return np.zeros(len(values), dtype=bool)
        if op is ast.ComparisonOp.NE:
            return np.ones(len(values), dtype=bool)
        raise ExpressionError(
            f"cannot compare numeric values with string {literal!r} using {op.value}"
        )
    values = np.asarray(values, dtype=np.float64)
    literal_value = float(literal)
    if op is ast.ComparisonOp.EQ:
        return values == literal_value
    if op is ast.ComparisonOp.NE:
        return values != literal_value
    if op is ast.ComparisonOp.LT:
        return values < literal_value
    if op is ast.ComparisonOp.LE:
        return values <= literal_value
    if op is ast.ComparisonOp.GT:
        return values > literal_value
    if op is ast.ComparisonOp.GE:
        return values >= literal_value
    raise ExpressionError(f"unknown comparison operator {op}")


# --------------------------------------------------------------------------- #
# Dictionary-encoded categorical predicates
# --------------------------------------------------------------------------- #


def _scalar_comparison(op: ast.ComparisonOp, literal: object) -> Callable[[object], bool]:
    """Per-value semantics of ``value <op> literal``."""
    if op is ast.ComparisonOp.EQ:
        return lambda v: v == literal
    if op is ast.ComparisonOp.NE:
        return lambda v: v != literal
    if op is ast.ComparisonOp.LT:
        return lambda v: v < literal
    if op is ast.ComparisonOp.LE:
        return lambda v: v <= literal
    if op is ast.ComparisonOp.GT:
        return lambda v: v > literal
    if op is ast.ComparisonOp.GE:
        return lambda v: v >= literal
    raise ExpressionError(f"unknown comparison operator {op}")


def leaf_match_key(leaf: ast.Predicate) -> Hashable | None:
    """A value-derived cache key for one categorical predicate leaf.

    Two structurally equal leaves (same operator and literals) share the key,
    so repeated queries reuse the memoised per-distinct-value evaluation.
    Returns ``None`` for leaves this module cannot evaluate per-value.
    """
    if isinstance(leaf, ast.Comparison) and isinstance(leaf.right, ast.Literal):
        return ("cmp", leaf.op, leaf.right.value)
    if isinstance(leaf, ast.InPredicate):
        return ("in", leaf.values, leaf.negated)
    if isinstance(leaf, ast.BetweenPredicate):
        return ("between", leaf.low, leaf.high)
    if isinstance(leaf, ast.LikePredicate):
        return ("like", leaf.pattern, leaf.negated)
    return None


def _leaf_match_function(leaf: ast.Predicate) -> Callable[[object], bool]:
    """The per-distinct-value evaluation of one leaf, negation included."""
    if isinstance(leaf, ast.Comparison):
        assert isinstance(leaf.right, ast.Literal)
        return _scalar_comparison(leaf.op, leaf.right.value)
    if isinstance(leaf, ast.InPredicate):
        allowed = set(leaf.values)
        if leaf.negated:
            return lambda v: v not in allowed
        return lambda v: v in allowed
    if isinstance(leaf, ast.BetweenPredicate):
        low, high = leaf.low, leaf.high
        return lambda v: low <= v <= high
    if isinstance(leaf, ast.LikePredicate):
        regex = _like_regex(leaf.pattern)
        if leaf.negated:
            return lambda v: regex.fullmatch(str(v)) is None
        return lambda v: regex.fullmatch(str(v)) is not None
    raise ExpressionError(f"cannot evaluate leaf of type {type(leaf).__name__}")


def distinct_match_mask(dictionary: Dictionary, leaf: ast.Predicate) -> np.ndarray:
    """Boolean mask over the dictionary's values satisfying ``leaf``.

    Memoised in the dictionary's ``matches`` (shared by every table that
    shares the dictionary), so the per-value evaluation runs once per
    dictionary and leaf, not once per scan run or sample batch prefix.
    """
    key = leaf_match_key(leaf)
    if key is not None:
        cached = dictionary.matches.get(key)
        if cached is not None:
            return cached
    match = _leaf_match_function(leaf)
    try:
        mask = np.fromiter(
            (bool(match(value)) for value in dictionary.values.tolist()),
            dtype=bool,
            count=len(dictionary),
        )
    except TypeError as error:
        # An ordered comparison (or BETWEEN) of strings against numbers.
        raise ExpressionError(f"cannot evaluate {type(leaf).__name__}: {error}") from None
    if key is not None:
        # Unlocked: a racing thread computes and stores the same mask.
        dictionary.matches[key] = mask
    return mask


def _is_categorical(table: Table, name: str) -> bool:
    return table.schema.column(name).is_categorical


def _categorical_leaf_mask(table: Table, name: str, leaf: ast.Predicate) -> np.ndarray:
    """Row mask of one categorical leaf: per-value evaluation + code gather."""
    return distinct_match_mask(table.dictionary(name), leaf)[table.codes(name)]


def evaluate_predicate(predicate: ast.Predicate | None, table: Table) -> np.ndarray:
    """Evaluate a predicate to a boolean mask over ``table`` rows.

    ``None`` (no predicate) evaluates to an all-True mask.
    """
    if predicate is None:
        return np.ones(len(table), dtype=bool)

    if isinstance(predicate, ast.And):
        mask = np.ones(len(table), dtype=bool)
        for child in predicate.predicates:
            mask &= evaluate_predicate(child, table)
        return mask
    if isinstance(predicate, ast.Or):
        mask = np.zeros(len(table), dtype=bool)
        for child in predicate.predicates:
            mask |= evaluate_predicate(child, table)
        return mask
    if isinstance(predicate, ast.Not):
        return ~evaluate_predicate(predicate.predicate, table)
    if isinstance(predicate, ast.Comparison):
        return _evaluate_comparison(predicate, table)
    if isinstance(predicate, ast.InPredicate):
        if _is_categorical(table, predicate.column.name):
            # Membership decided once per distinct value (negation folded
            # into the per-value function), gathered via the codes.
            return _categorical_leaf_mask(table, predicate.column.name, predicate)
        column = table.column(predicate.column.name)
        numeric_allowed = np.asarray(
            [v for v in predicate.values if isinstance(v, (int, float))],
            dtype=np.float64,
        )
        mask = np.isin(np.asarray(column, dtype=np.float64), numeric_allowed)
        return ~mask if predicate.negated else mask
    if isinstance(predicate, ast.BetweenPredicate):
        if _is_categorical(table, predicate.column.name):
            return _categorical_leaf_mask(table, predicate.column.name, predicate)
        if isinstance(predicate.low, str) or isinstance(predicate.high, str):
            raise ExpressionError(
                f"cannot compare numeric column {predicate.column.name!r} "
                "with string BETWEEN bounds"
            )
        values = np.asarray(table.column(predicate.column.name), dtype=np.float64)
        return (values >= float(predicate.low)) & (values <= float(predicate.high))
    if isinstance(predicate, ast.LikePredicate):
        if _is_categorical(table, predicate.column.name):
            # Matching the few distinct values (memoised per dictionary +
            # pattern) and scattering back through the codes beats running
            # the regex once per row.
            return _categorical_leaf_mask(table, predicate.column.name, predicate)
        regex = _like_regex(predicate.pattern)
        column = table.column(predicate.column.name)
        uniques, inverse = np.unique(column.astype(str), return_inverse=True)
        unique_mask = np.asarray(
            [regex.fullmatch(value) is not None for value in uniques], dtype=bool
        )
        mask = unique_mask[inverse]
        return ~mask if predicate.negated else mask
    raise ExpressionError(f"cannot evaluate predicate of type {type(predicate).__name__}")


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern: ``%`` -> ``.*``, ``_`` -> ``.``.

    Every other character is matched literally (unlike ``fnmatch``, which
    would give ``[...]`` glob semantics SQL LIKE does not have).
    """
    parts = []
    for character in pattern:
        if character == "%":
            parts.append(".*")
        elif character == "_":
            parts.append(".")
        else:
            parts.append(re.escape(character))
    return re.compile("".join(parts), re.DOTALL)


def _evaluate_comparison(predicate: ast.Comparison, table: Table) -> np.ndarray:
    left, op, right = predicate.left, predicate.op, predicate.right
    # Normalise "literal <op> column" to "column <flipped op> literal".
    if isinstance(left, ast.Literal) and not isinstance(right, ast.Literal):
        left, right = right, left
        op = _flip(op)
    if isinstance(right, ast.Literal):
        if isinstance(left, ast.ColumnRef):
            if _is_categorical(table, left.name):
                # The comparison runs once per distinct value instead of
                # once per row (the normalised leaf keeps the original
                # literal, so semantics match a per-row comparison).
                normalised = ast.Comparison(left=left, op=op, right=right)
                return _categorical_leaf_mask(table, left.name, normalised)
            return _comparison_mask(table.column(left.name), op, right.value)
        values = evaluate_expression(left, table)
        return _comparison_mask(np.asarray(values, dtype=np.float64), op, right.value)
    # column-vs-column (or expression-vs-expression) comparison
    left_values = np.asarray(evaluate_expression(left, table), dtype=np.float64)
    right_values = np.asarray(evaluate_expression(right, table), dtype=np.float64)
    if op is ast.ComparisonOp.EQ:
        return left_values == right_values
    if op is ast.ComparisonOp.NE:
        return left_values != right_values
    if op is ast.ComparisonOp.LT:
        return left_values < right_values
    if op is ast.ComparisonOp.LE:
        return left_values <= right_values
    if op is ast.ComparisonOp.GT:
        return left_values > right_values
    if op is ast.ComparisonOp.GE:
        return left_values >= right_values
    raise ExpressionError(f"unknown comparison operator {op}")


def _flip(op: ast.ComparisonOp) -> ast.ComparisonOp:
    mapping = {
        ast.ComparisonOp.EQ: ast.ComparisonOp.EQ,
        ast.ComparisonOp.NE: ast.ComparisonOp.NE,
        ast.ComparisonOp.LT: ast.ComparisonOp.GT,
        ast.ComparisonOp.LE: ast.ComparisonOp.GE,
        ast.ComparisonOp.GT: ast.ComparisonOp.LT,
        ast.ComparisonOp.GE: ast.ComparisonOp.LE,
    }
    return mapping[op]
