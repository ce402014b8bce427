"""Brute-force reference implementations the equivalence tests compare against.

Each function here is the slow, obviously-correct form of a production fast
path: a whole-table predicate mask, a dict of first-seen group keys and one
``values[group_mask]`` reduction per cell (vs. the partitioned scan and the
factorized group-by kernel), scalar CLT estimates formed cell by cell (vs.
the array estimators over all groups at once), a per-row Python decision of every predicate
over decoded values (vs. dictionary-code predicates), and the covariance
factors taken
attribute by attribute, with their own closed-form squared-exponential
arithmetic (vs. the covariance kernel's one batched evaluation and ``take``
scatter, ``ReferenceCovariance`` and ``factor_matrix`` here), and one learned answer cell at a time
through Equation 12, Appendix B's validation and the COUNT / SUM
recombination (vs. the array rules over all of a key's cells).  The
production paths must reproduce them byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import linalg
from repro.core.kernel import se_double_integral, se_kernel
from repro.core.regions import (
    AttributeDomains,
    CategoricalConstraint,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import Snippet
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


# --------------------------------------------------------------------------- #
# The covariance factors, one attribute at a time
# --------------------------------------------------------------------------- #


def se_average_factor(
    low_1: np.ndarray | float,
    high_1: np.ndarray | float,
    low_2: np.ndarray | float,
    high_2: np.ndarray | float,
    length_scale: float,
) -> np.ndarray | float:
    """The double integral normalised by both range widths.

    This is the per-attribute covariance factor between two *averages* over
    ranges ``[low_1, high_1]`` and ``[low_2, high_2]``; it lies in ``[0, 1]``
    and tends to ``exp(-(x_1 - x_2)^2 / l^2)`` as both ranges shrink to
    points.
    """
    a = np.asarray(low_1, dtype=np.float64)
    b = np.asarray(high_1, dtype=np.float64)
    c = np.asarray(low_2, dtype=np.float64)
    d = np.asarray(high_2, dtype=np.float64)
    width_1 = b - a
    width_2 = d - c
    if np.any(width_1 < 0) or np.any(width_2 < 0):
        raise ValueError("ranges must have non-negative width")
    integral = se_double_integral(a, b, c, d, length_scale)
    denominator = width_1 * width_2
    # Degenerate widths are handled by the callers (regions always carry a
    # positive resolution), but guard against zero anyway.
    safe = np.where(denominator <= 0.0, 1.0, denominator)
    factor = integral / safe
    factor = np.where(
        denominator <= 0.0,
        se_kernel(0.5 * (a + b) - 0.5 * (c + d), length_scale),
        factor,
    )
    return np.clip(factor, 0.0, 1.0)


def _intersection_counts(
    rows: Sequence[CategoricalConstraint], cols: Sequence[CategoricalConstraint]
) -> np.ndarray:
    """Pairwise ``intersection_size`` matrix via membership-matrix products.

    Values are indexed in first-seen order (they may mix types, so no sort);
    the boolean membership matrices multiply into the full count matrix in
    one BLAS call.  Rows/columns for unconstrained (full-domain) constraints
    are patched with the other side's size, per
    :meth:`CategoricalConstraint.intersection_size`.
    """
    value_ids: dict = {}
    for constraint in list(rows) + list(cols):
        if constraint.values is not None:
            for value in constraint.values:
                value_ids.setdefault(value, len(value_ids))

    def membership(constraints: Sequence[CategoricalConstraint]) -> np.ndarray:
        matrix = np.zeros((len(constraints), max(len(value_ids), 1)), dtype=np.float64)
        for position, constraint in enumerate(constraints):
            if constraint.values is not None:
                for value in constraint.values:
                    matrix[position, value_ids[value]] = 1.0
        return matrix

    counts = membership(rows) @ membership(cols).T
    row_none = np.array([c.values is None for c in rows], dtype=bool)
    col_none = np.array([c.values is None for c in cols], dtype=bool)
    if row_none.any():
        col_sizes = np.array([c.size for c in cols], dtype=np.float64)
        counts[row_none, :] = col_sizes[None, :]
    if col_none.any():
        row_sizes = np.array([c.size for c in rows], dtype=np.float64)
        counts[:, col_none] = row_sizes[:, None]
    if row_none.any() and col_none.any():
        # Both unconstrained: the whole domain intersects itself.
        domain_sizes = np.array([c.domain_size for c in rows], dtype=np.float64)
        counts[np.ix_(row_none, col_none)] = domain_sizes[row_none, None]
    return counts


@dataclass(frozen=True)
class _NumericColumn:
    """Distinct ranges of one numeric attribute over a snippet list."""

    slots: dict[tuple[float, float], int]  # range -> position in lows/highs
    lows: np.ndarray  # (r,) distinct lower bounds, first-seen order
    highs: np.ndarray  # (r,) distinct upper bounds
    index: np.ndarray  # (size,) int64 slot of every snippet

    @classmethod
    def of(cls, ranges: Sequence[tuple[float, float]]) -> "_NumericColumn":
        """The column of one row per range."""
        slots: dict[tuple[float, float], int] = {}
        index = np.fromiter(
            (slots.setdefault(bounds, len(slots)) for bounds in ranges),
            dtype=np.int64,
            count=len(ranges),
        )
        lows, highs = np.array(list(slots), dtype=np.float64).reshape(-1, 2).T.copy()
        return cls(slots, lows, highs, index)

    def appended(self, other: "_NumericColumn") -> "_NumericColumn":
        """This column followed by ``other``'s rows (neither is modified).

        ``other``'s distinct ranges take their slots here in first-seen
        order, so the result equals the column of both row lists at once.
        """
        slots = dict(self.slots)
        remap = np.fromiter(
            (slots.setdefault(bounds, len(slots)) for bounds in other.slots),
            dtype=np.int64,
            count=len(other.slots),
        )
        added = remap >= len(self.slots)
        return _NumericColumn(
            slots,
            np.concatenate([self.lows, other.lows[added]]),
            np.concatenate([self.highs, other.highs[added]]),
            np.concatenate([self.index, remap[other.index]]),
        )


@dataclass(frozen=True)
class _CategoricalColumn:
    """Distinct value sets of one categorical attribute over a snippet list."""

    slots: dict[frozenset | None, int]  # value set -> position in constraints
    constraints: tuple[CategoricalConstraint, ...]  # distinct, first-seen order
    index: np.ndarray  # (size,) int64 slot of every snippet

    @classmethod
    def of(cls, constraints: Sequence[CategoricalConstraint]) -> "_CategoricalColumn":
        """The column of one row per constraint."""
        slots: dict[frozenset | None, int] = {}
        distinct: list[CategoricalConstraint] = []
        index = _slot_constraints(slots, distinct, constraints)
        return cls(slots, tuple(distinct), index)

    def appended(self, other: "_CategoricalColumn") -> "_CategoricalColumn":
        """This column followed by ``other``'s rows (neither is modified).

        ``other``'s distinct value sets take their slots here in first-seen
        order, so the result equals the column of both row lists at once.
        """
        slots = dict(self.slots)
        distinct = list(self.constraints)
        remap = _slot_constraints(slots, distinct, other.constraints)
        return _CategoricalColumn(
            slots, tuple(distinct), np.concatenate([self.index, remap[other.index]])
        )


def _slot_constraints(
    slots: dict[frozenset | None, int],
    distinct: list[CategoricalConstraint],
    constraints: Sequence[CategoricalConstraint],
) -> np.ndarray:
    """The slot of every constraint, adding unseen value sets to both maps."""
    index = np.empty(len(constraints), dtype=np.int64)
    for position, constraint in enumerate(constraints):
        slot = slots.setdefault(constraint.values, len(slots))
        if slot == len(distinct):
            distinct.append(constraint)
        index[position] = slot
    return index


def _categorical_block(row: _CategoricalColumn, col: _CategoricalColumn) -> np.ndarray:
    """Factors between the distinct value sets of one categorical attribute."""
    base = _intersection_counts(row.constraints, col.constraints)
    row_sizes = np.array([max(c.size, 1) for c in row.constraints], dtype=np.float64)
    col_sizes = np.array([max(c.size, 1) for c in col.constraints], dtype=np.float64)
    base /= row_sizes[:, None] * col_sizes[None, :]
    return base


def _spans_categorical_domain(column: _CategoricalColumn) -> bool:
    """Whether every snippet of ``column`` leaves the attribute unconstrained."""
    return len(column.constraints) == 1 and column.constraints[0].values is None


@dataclass(frozen=True)
class RegionEncoding:
    """Columnar, deduplicated encoding of a snippet list's predicate regions.

    One column per domain attribute holds the attribute's *distinct*
    constraints (unconstrained attributes spanning their full domain) and an
    ``int64`` index mapping every snippet to its distinct entry.  Produced
    by :meth:`ReferenceCovariance.encode`; it depends on the attribute domains
    only, not on the length scales, so it is built once per snippet list and
    every factor computation afterwards is array work.
    """

    size: int
    numeric: dict[str, _NumericColumn]  # in sorted attribute order
    categorical: dict[str, _CategoricalColumn]  # in sorted attribute order

    def appended(self, other: "RegionEncoding") -> "RegionEncoding":
        """The encoding of this list followed by ``other``'s (neither is
        modified): equal to encoding both lists at once, without touching a
        region again."""
        return RegionEncoding(
            size=self.size + other.size,
            numeric={
                name: column.appended(other.numeric[name])
                for name, column in self.numeric.items()
            },
            categorical={
                name: column.appended(other.categorical[name])
                for name, column in self.categorical.items()
            },
        )


class ReferenceCovariance:
    """The covariance factors attribute by attribute (the path the compiled
    kernel of ``repro.core.covariance`` replaced), as the reference.

    The factors returned by this class are *unit-variance* correlations (the
    product over attributes of per-attribute factors in ``[0, 1]``); callers
    multiply by the calibrated signal variance ``sigma_g^2``.

    Every factor method takes either plain snippet lists or their
    :class:`RegionEncoding`; passing the encoding of a list that is used
    repeatedly (the past snippets of a prepared model) skips the per-snippet
    Python work.  Factors are computed element-wise on the distinct
    constraint pairs and scattered through the index arrays, so the values
    do not depend on which form was passed.
    """

    def __init__(self, domains: AttributeDomains, model: AggregateModel):
        self.domains = domains
        self.model = model
        # The range an unconstrained region spans on each numeric attribute.
        self._full_ranges = {
            name: self._numeric_range(None, domain)
            for name, domain in domains.numeric.items()
        }
        # Attribute -> factor between two regions that leave it unconstrained.
        # It depends only on the domain and the length scale, both fixed for
        # this object's life, so it holds at most one float per attribute.
        self._full_domain_factors: dict[str, float] = {}

    # ------------------------------------------------------------------ public

    def encode(
        self, snippets: Sequence[Snippet] | Sequence[Region] | RegionEncoding
    ) -> RegionEncoding:
        """Encode the regions of ``snippets`` (snippets or bare regions).

        An encoding passed as ``snippets`` is returned as it is, which is
        what lets the factor methods take either form.
        """
        if isinstance(snippets, RegionEncoding):
            return snippets
        regions = [
            item if isinstance(item, Region) else item.region for item in snippets
        ]
        numeric_rows = [region.numeric_by_name() for region in regions]
        categorical_rows = [region.categorical_by_name() for region in regions]
        numeric = {
            name: _NumericColumn.of(
                [self._numeric_range(row.get(name), domain) for row in numeric_rows]
            )
            for name, domain in sorted(self.domains.numeric.items())
        }
        categorical: dict[str, _CategoricalColumn] = {}
        for name, domain in sorted(self.domains.categorical.items()):
            # An unconstrained region spans the attribute's whole domain.
            full = CategoricalConstraint(name=name, values=None, domain_size=domain.size)
            categorical[name] = _CategoricalColumn.of(
                [row.get(name, full) for row in categorical_rows]
            )
        return RegionEncoding(
            size=len(regions), numeric=numeric, categorical=categorical
        )

    def factor_matrix(
        self,
        rows: Sequence[Snippet] | RegionEncoding,
        cols: Sequence[Snippet] | RegionEncoding | None = None,
    ) -> np.ndarray:
        """Pairwise factor matrix between two snippet lists.

        When ``cols`` is omitted the matrix is the symmetric factor matrix of
        ``rows`` against itself.
        """
        symmetric = cols is None
        row_encoding = self.encode(rows)
        col_encoding = row_encoding if symmetric else self.encode(cols)
        result = np.ones((row_encoding.size, col_encoding.size), dtype=np.float64)
        if result.size == 0:
            return result
        for name, row in row_encoding.numeric.items():
            col = col_encoding.numeric[name]
            if self._spans_numeric_domain(name, row) and self._spans_numeric_domain(name, col):
                result *= self._full_domain_factor(
                    name, lambda: self._numeric_block(name, row, col)
                )
            else:
                result *= self.numeric_factor(name, row_encoding, col_encoding)
        for name, row in row_encoding.categorical.items():
            col = col_encoding.categorical[name]
            if _spans_categorical_domain(row) and _spans_categorical_domain(col):
                result *= self._full_domain_factor(name, lambda: _categorical_block(row, col))
            else:
                result *= self.categorical_factor(name, row_encoding, col_encoding)
        if symmetric:
            # Exact symmetry for the factorisation downstream; the matrix is
            # symmetric by construction up to float accumulation order.
            result = linalg.symmetrize(result)
        return result

    def factor_diagonal(
        self, snippets: Sequence[Snippet] | RegionEncoding
    ) -> np.ndarray:
        """Self-factors of every snippet, without forming the full matrix.

        This is the diagonal of ``factor_matrix(snippets)`` computed in
        O(m) (after range deduplication) rather than O(m^2); batched
        inference needs exactly the diagonal for the prior variances of the
        new snippets.
        """
        encoding = self.encode(snippets)
        result = np.ones(encoding.size, dtype=np.float64)
        if encoding.size == 0:
            return result
        for name, column in encoding.numeric.items():
            if self._spans_numeric_domain(name, column):
                result *= self._full_domain_factor(
                    name, lambda: self._numeric_block(name, column, column)
                )
                continue
            base = np.asarray(
                se_average_factor(
                    column.lows,
                    column.highs,
                    column.lows,
                    column.highs,
                    self.model.length_scale(name, self.domains),
                ),
                dtype=np.float64,
            )
            result *= base[column.index]
        for name, column in encoding.categorical.items():
            if _spans_categorical_domain(column):
                result *= self._full_domain_factor(
                    name, lambda: _categorical_block(column, column)
                )
                continue
            # A constraint's self-intersection is just its size, so the
            # normalised self-factor is size / max(size, 1)^2.
            sizes = np.array(
                [constraint.size for constraint in column.constraints], dtype=np.float64
            )
            factors = sizes / np.square(np.maximum(sizes, 1.0))
            result *= factors[column.index]
        return result

    # ---------------------------------------------------------------- per-type

    def numeric_factor(
        self, name: str, rows: RegionEncoding, cols: RegionEncoding
    ) -> np.ndarray:
        """Normalised double-integral factors of one numeric attribute.

        Snippets in a workload reuse a small number of distinct ranges per
        attribute (most commonly the full domain), so factors are computed on
        the distinct ranges and scattered back, keeping the cost independent
        of the number of snippet pairs in the common case.  Rows and columns
        keep *separate* distinct sets, so a rectangular block (the hot case:
        an ``(n, k)`` cross block against a few appended or new snippets)
        costs O(distinct_rows x distinct_cols) kernel evaluations rather
        than the square of the union.
        """
        row, col = rows.numeric[name], cols.numeric[name]
        return self._numeric_block(name, row, col)[np.ix_(row.index, col.index)]

    def categorical_factor(
        self, name: str, rows: RegionEncoding, cols: RegionEncoding
    ) -> np.ndarray:
        """Normalised intersection factors of one categorical attribute.

        Pairwise intersection sizes between the distinct constraints are
        computed as one membership-matrix product: with ``M`` the boolean
        (constraint x distinct value) membership matrix, ``M @ M.T`` yields
        every ``|F_i,k intersect F_j,k|`` at once.  Unconstrained entries
        (``values is None``, the full domain) are patched afterwards: their
        intersection with any value set is that set's size, and with another
        unconstrained entry the domain size.
        """
        row, col = rows.categorical[name], cols.categorical[name]
        return _categorical_block(row, col)[np.ix_(row.index, col.index)]

    # --------------------------------------------------------------- internals

    def _numeric_block(
        self, name: str, row: _NumericColumn, col: _NumericColumn
    ) -> np.ndarray:
        """Factors between the distinct ranges of one numeric attribute."""
        base = se_average_factor(
            row.lows[:, None],
            row.highs[:, None],
            col.lows[None, :],
            col.highs[None, :],
            self.model.length_scale(name, self.domains),
        )
        return np.asarray(base, dtype=np.float64)

    def _spans_numeric_domain(self, name: str, column: _NumericColumn) -> bool:
        """Whether every snippet of ``column`` spans the attribute's full domain."""
        return len(column.slots) == 1 and self._full_ranges[name] in column.slots

    def _full_domain_factor(self, name: str, block: Callable[[], np.ndarray]) -> float:
        """The memoised factor between two full-domain columns of ``name``.

        ``block`` computes it on first use from the same one-slot columns the
        unfolded path would use, so the scalar equals every entry of the
        array it replaces bit for bit.
        """
        factor = self._full_domain_factors.get(name)
        if factor is None:
            factor = self._full_domain_factors[name] = float(block()[0, 0])
        return factor

    @staticmethod
    def _numeric_range(
        constrained: NumericRange | None, domain: NumericDomain
    ) -> tuple[float, float]:
        """The range a region spans on one attribute, clamped to its domain."""
        if constrained is not None:
            low = max(constrained.low, domain.low - domain.width)
            high = min(constrained.high, domain.high + domain.width)
            if high - low < domain.resolution:
                center = 0.5 * (low + high)
                low = center - 0.5 * domain.resolution
                high = center + 0.5 * domain.resolution
            return (low, high)
        return (domain.low, domain.high if domain.high > domain.low else domain.low + domain.resolution)


def factor_matrix(covariance, rows, cols=None) -> np.ndarray:
    """``ReferenceCovariance.factor_matrix`` as one array product per attribute."""
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
    """``ReferenceCovariance.factor_diagonal`` with every attribute as an array."""
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


# --------------------------------------------------------------------------- #
# One learned answer cell at a time
# --------------------------------------------------------------------------- #


def combine(gp_mean, gamma2, observed, observed_variance):
    """Equation 12 for one cell: precision-weighted model and raw answer."""
    if observed_variance <= 0.0:
        return observed, 0.0
    if not math.isfinite(gamma2) or gamma2 <= 0.0:
        return observed, observed_variance
    denominator = observed_variance + gamma2
    value = (observed_variance * gp_mean + gamma2 * observed) / denominator
    variance = (observed_variance * gamma2) / denominator
    return value, variance


def condition(gp_mean, gamma2, raw_answer, raw_error, scale):
    """One cell's model answer and error; ``scale`` is ``None`` for AVG."""
    observed = raw_answer if scale is None else raw_answer / scale
    observed_error = raw_error if scale is None else raw_error / scale
    value, variance = combine(gp_mean, gamma2, observed, observed_error * observed_error)
    error = math.sqrt(variance)
    if scale is None:
        return value, error
    return value * scale, error * scale


def validate(model_answer, model_error, raw_answer, raw_error, is_freq, confidence,
             enabled, conservative):
    """Appendix B for one cell: ``(accepted, reason, answer, error, halfwidth)``."""
    from repro.aqp.estimators import confidence_multiplier

    multiplier = confidence_multiplier(confidence)
    halfwidth = multiplier * raw_error
    if is_freq and model_answer < 0.0:
        if enabled:
            return False, "negative FREQ estimate", raw_answer, raw_error, halfwidth
        return True, "negative FREQ clipped", 0.0, model_error, halfwidth
    if not enabled:
        return True, "validation disabled", model_answer, model_error, halfwidth
    disagreement = abs(raw_answer - model_answer)
    if disagreement > halfwidth and raw_error > 0:
        return False, "raw answer outside likely region", raw_answer, raw_error, halfwidth
    improved_error = model_error
    if conservative and multiplier > 0:
        improved_error = max(improved_error, disagreement / multiplier)
        if raw_error > 0:
            improved_error = min(improved_error, raw_error)
    return True, "model accepted", model_answer, improved_error, halfwidth


def assemble_cell(function, population, raw_value, raw_error, avg_result, freq_result):
    """One user-facing cell from its ``(value, error, improved, reason)``
    parts; ``None`` where the cell passes its raw estimate through."""
    if function is ast.AggregateFunction.AVG and avg_result is not None:
        value, error, improved, reason = avg_result
    elif function is ast.AggregateFunction.FREQ and freq_result is not None:
        value, error, improved, reason = freq_result
    elif function is ast.AggregateFunction.COUNT and freq_result is not None:
        freq_value, freq_error, improved, reason = freq_result
        value = freq_value * population
        error = freq_error * population
    elif (
        function is ast.AggregateFunction.SUM
        and avg_result is not None
        and freq_result is not None
    ):
        avg_value, avg_error, avg_improved, avg_reason = avg_result
        freq_value, freq_error, freq_improved, freq_reason = freq_result
        count_value = freq_value * population
        count_error = freq_error * population
        value = avg_value * count_value
        error = math.sqrt((count_value * avg_error) ** 2 + (avg_value * count_error) ** 2)
        improved = avg_improved or freq_improved
        reason = "; ".join(sorted({avg_reason, freq_reason}))
    else:
        return None
    if error > raw_error and raw_error > 0:
        return raw_value, raw_error, False, "recombination not tighter than raw"
    return value, error, improved, reason
