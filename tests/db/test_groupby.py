"""Unit tests for the factorized group-by kernel and the shared HAVING
row-predicate evaluator."""

import numpy as np
import pytest

from repro.db.groupby import (
    GroupedSelection,
    factorize,
    normalize_value,
    segment_aggregate,
)
from repro.db.having import compile_row_predicate
from repro.db.schema import ColumnKind, Schema, categorical_dimension, measure, numeric_dimension
from repro.db.table import Table
from repro.errors import ExpressionError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from tests import oracles


def make_table(**columns) -> Table:
    schema_columns = []
    for name, values in columns.items():
        if all(isinstance(v, str) for v in values):
            schema_columns.append(categorical_dimension(name))
        elif all(isinstance(v, (int, np.integer)) for v in values):
            schema_columns.append(numeric_dimension(name, ColumnKind.INT))
        else:
            schema_columns.append(measure(name))
    return Table("t", Schema.of(schema_columns), columns)


def kernel_as_mask_pairs(table, mask, group_columns):
    """Render a factorization in the oracle's (key, boolean mask) shape."""
    grouped = factorize(table, mask, group_columns)
    if grouped is None:
        return []
    return [
        (key, grouped.group_mask(group, len(table)))
        for group, key in enumerate(grouped.keys)
    ]


class TestFactorize:
    def test_matches_legacy_on_mixed_columns(self):
        table = make_table(
            region=["b", "a", "b", "a", "c", "b"],
            week=[2, 1, 2, 1, 3, 1],
            revenue=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        mask = np.ones(6, dtype=bool)
        expected = oracles.iter_groups(table, mask, ["region", "week"])
        new = kernel_as_mask_pairs(table, mask, ["region", "week"])
        assert [k for k, _ in expected] == [k for k, _ in new]
        for (_, a), (_, b) in zip(expected, new):
            assert np.array_equal(a, b)

    def test_empty_selection_returns_none(self):
        table = make_table(region=["a", "b"], revenue=[1.0, 2.0])
        assert factorize(table, np.zeros(2, dtype=bool), ["region"]) is None
        assert oracles.iter_groups(table, np.zeros(2, dtype=bool), ["region"]) == []

    def test_single_group(self):
        table = make_table(region=["a", "a", "a"], revenue=[1.0, 2.0, 3.0])
        grouped = factorize(table, np.ones(3, dtype=bool), ["region"])
        assert grouped.keys == [("a",)]
        assert list(grouped.counts) == [3]
        assert list(grouped.group_indices(0)) == [0, 1, 2]

    def test_all_distinct_groups(self):
        table = make_table(week=[5, 3, 9, 1], revenue=[1.0, 2.0, 3.0, 4.0])
        grouped = factorize(table, np.ones(4, dtype=bool), ["week"])
        # First-seen order, not sorted order.
        assert grouped.keys == [(5,), (3,), (9,), (1,)]
        assert list(grouped.counts) == [1, 1, 1, 1]

    def test_keys_are_plain_python_values(self):
        table = make_table(week=[3, 3], price=[1.5, 1.5], revenue=[1.0, 2.0])
        grouped = factorize(table, np.ones(2, dtype=bool), ["week", "price"])
        (key,) = grouped.keys
        assert type(key[0]) is int and type(key[1]) is float
        assert key == (3, 1.5)

    def test_respects_mask_and_ascending_order_within_group(self):
        table = make_table(region=["a", "b", "a", "b", "a"], revenue=[1.0, 2.0, 3.0, 4.0, 5.0])
        mask = np.array([True, True, False, True, True])
        grouped = factorize(table, mask, ["region"])
        assert grouped.keys == [("a",), ("b",)]
        assert list(grouped.group_indices(0)) == [0, 4]
        assert list(grouped.group_indices(1)) == [1, 3]

    def test_nan_group_values_match_legacy(self):
        # Dict keys keep every NaN distinct (NaN != NaN): one group per NaN
        # row.  The kernel must reproduce that.
        table = make_table(x=[1.0, float("nan"), 1.0, float("nan")], revenue=[1.0] * 4)
        mask = np.ones(4, dtype=bool)
        expected = oracles.iter_groups(table, mask, ["x"])
        new = kernel_as_mask_pairs(table, mask, ["x"])
        assert len(expected) == len(new) == 3
        for (_, a), (_, b) in zip(expected, new):
            assert np.array_equal(a, b)

    def test_sparse_int_column_falls_back_to_unique(self):
        # Span far beyond the dense bound: still groups correctly.
        table = make_table(big=[10**12, 5, 10**12, 5], revenue=[1.0, 2.0, 3.0, 4.0])
        grouped = factorize(table, np.ones(4, dtype=bool), ["big"])
        assert grouped.keys == [(10**12,), (5,)]
        assert list(grouped.counts) == [2, 2]

    def test_take_aligns_with_segments(self):
        table = make_table(region=["b", "a", "b", "a"], revenue=[1.0, 2.0, 3.0, 4.0])
        grouped = factorize(table, np.ones(4, dtype=bool), ["region"])
        taken = grouped.take(table.column("revenue"))
        segments = [
            list(taken[grouped.starts[g] : grouped.ends[g]])
            for g in range(grouped.num_groups)
        ]
        assert segments == [[1.0, 3.0], [2.0, 4.0]]


class TestSegmentAggregate:
    @pytest.fixture()
    def grouped(self):
        table = make_table(region=["a", "b", "a", "b", "a"], revenue=[1.0, 2.0, 3.0, 4.0, 5.0])
        return table, factorize(table, np.ones(5, dtype=bool), ["region"])

    def test_all_aggregate_functions(self, grouped):
        table, g = grouped
        values = np.asarray(table.column("revenue"), dtype=np.float64)
        assert list(segment_aggregate(ast.AggregateFunction.COUNT, g, None, 5)) == [3.0, 2.0]
        assert list(segment_aggregate(ast.AggregateFunction.FREQ, g, None, 5)) == [0.6, 0.4]
        assert list(segment_aggregate(ast.AggregateFunction.SUM, g, values, 5)) == [9.0, 6.0]
        assert list(segment_aggregate(ast.AggregateFunction.AVG, g, values, 5)) == [3.0, 3.0]
        assert list(segment_aggregate(ast.AggregateFunction.MIN, g, values, 5)) == [1.0, 2.0]
        assert list(segment_aggregate(ast.AggregateFunction.MAX, g, values, 5)) == [5.0, 4.0]

    def test_freq_with_zero_total(self, grouped):
        _, g = grouped
        assert list(segment_aggregate(ast.AggregateFunction.FREQ, g, None, 0)) == [0.0, 0.0]

    def test_measure_required(self, grouped):
        _, g = grouped
        with pytest.raises(ExpressionError):
            segment_aggregate(ast.AggregateFunction.SUM, g, None, 5)


class TestNormalizeValue:
    def test_numpy_scalars_become_python(self):
        assert type(normalize_value(np.int64(3))) is int
        assert type(normalize_value(np.float64(3.5))) is float
        assert normalize_value("s") == "s"


class TestHavingEvaluator:
    def make_query(self, sql: str) -> ast.Query:
        return parse_query(sql)

    def test_comparison_on_aggregate_and_group_column(self):
        query = self.make_query(
            "SELECT region, SUM(revenue) FROM t GROUP BY region HAVING sum_revenue > 10"
        )
        matches = compile_row_predicate(query.having, query)
        assert matches(("east",), {"sum_revenue": 11.0})
        assert not matches(("east",), {"sum_revenue": 9.0})

    def test_literal_column_orientation_flips(self):
        query = self.make_query(
            "SELECT region, SUM(revenue) FROM t GROUP BY region HAVING 10 < sum_revenue"
        )
        matches = compile_row_predicate(query.having, query)
        assert matches(("east",), {"sum_revenue": 11.0})
        assert not matches(("east",), {"sum_revenue": 10.0})

    def test_in_predicate_set_hoisted_once(self):
        query = self.make_query(
            "SELECT region, COUNT(*) FROM t GROUP BY region "
            "HAVING region IN ('east', 'west')"
        )
        matches = compile_row_predicate(query.having, query)
        assert matches(("east",), {"count_star": 1.0})
        assert not matches(("north",), {"count_star": 1.0})

    def test_aggregate_name_wins_over_group_column(self):
        # Resolution order: aggregates first, then group columns.
        query = ast.Query(
            select=(
                ast.SelectItem(ast.ColumnRef("region")),
                ast.SelectItem(
                    ast.Aggregate(ast.AggregateFunction.COUNT, ast.Star()),
                    alias="region",
                ),
            ),
            table="t",
            group_by=(ast.ColumnRef("region"),),
            having=ast.Comparison(
                ast.ColumnRef("region"), ast.ComparisonOp.GT, ast.Literal(2)
            ),
        )
        matches = compile_row_predicate(query.having, query)
        assert matches(("east",), {"region": 3.0})
        assert not matches(("east",), {"region": 1.0})

    def test_unknown_column_raises(self):
        query = self.make_query(
            "SELECT region, COUNT(*) FROM t GROUP BY region HAVING count_star > 1"
        )
        bad = ast.Comparison(ast.ColumnRef("nope"), ast.ComparisonOp.GT, ast.Literal(1))
        with pytest.raises(ExpressionError):
            compile_row_predicate(bad, query)

    def test_compiled_reads_a_result_row(self):
        from repro.db.executor import ResultRow

        query = self.make_query(
            "SELECT region, SUM(revenue) FROM t GROUP BY region "
            "HAVING sum_revenue >= 5 AND region <> 'west'"
        )
        row = ResultRow(group_values=("east",), aggregates={"sum_revenue": 5.0})
        compiled = compile_row_predicate(query.having, query)
        assert compiled(row.group_values, row.aggregates)


class TestGroupedSelectionShape:
    def test_group_mask_round_trip(self):
        table = make_table(region=["a", "b", "a"], revenue=[1.0, 2.0, 3.0])
        grouped = factorize(table, np.ones(3, dtype=bool), ["region"])
        assert isinstance(grouped, GroupedSelection)
        mask_a = grouped.group_mask(0, 3)
        assert list(mask_a) == [True, False, True]


class TestSortWidthBoundaries:
    """Combined cardinalities either side of the uint8 / uint16 sort widths.

    ``factorize`` sorts the combined codes through the narrowest unsigned
    dtype that holds them (a radix sort at <= 16 bits) and reads segment
    bounds off a bincount; wider code spaces keep the int64 sort.  Every
    width must produce the permutation, segments and keys of the plain int64
    stable argsort spelled out here.
    """

    @staticmethod
    def oracle(combined: np.ndarray):
        """(order, starts, ends, first selected position) per first-seen group."""
        order = np.argsort(combined, kind="stable")
        ordered = combined[order]
        heads = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        tails = np.r_[heads[1:], len(combined)]
        first_seen = np.argsort(order[heads], kind="stable")
        return order, heads[first_seen], tails[first_seen], order[heads][first_seen]

    @staticmethod
    def column(rng, cardinality: int, rows: int) -> np.ndarray:
        """``rows`` ints spanning exactly ``[0, cardinality)``, shuffled."""
        values = rng.integers(0, cardinality, size=rows)
        values[:2] = (0, cardinality - 1)
        rng.shuffle(values)
        return values.astype(np.int64)

    @pytest.mark.parametrize(
        "radices",
        [
            (255,), (256,), (257,), (65_535,), (65_536,), (65_537,),
            (15, 17), (16, 16), (257, 1), (255, 257), (256, 256), (65_537, 1),
        ],
        ids=lambda radices: "x".join(map(str, radices)),
    )
    def test_matches_int64_stable_argsort(self, radices):
        rng = np.random.default_rng(sum(radices))
        rows = 70_000
        names = [f"g{i}" for i in range(len(radices))]
        columns = {
            name: self.column(rng, radix, rows) for name, radix in zip(names, radices)
        }
        table = make_table(**columns, m=rng.normal(size=rows))
        selected = np.flatnonzero(rng.random(rows) < 0.8)

        grouped = factorize(table, None, names, selected_indices=selected)

        combined = np.zeros(len(selected), dtype=np.int64)
        for name, radix in zip(names, radices):
            combined = combined * radix + columns[name][selected]
        order, starts, ends, first = self.oracle(combined)
        assert np.array_equal(grouped.order, order)
        assert np.array_equal(grouped.starts, starts)
        assert np.array_equal(grouped.ends, ends)
        assert np.array_equal(grouped.counts, ends - starts)
        assert grouped.keys == [
            tuple(int(columns[name][row]) for name in names) for row in selected[first]
        ]
        # Gathered lazily, on this first read.
        assert np.array_equal(grouped.sorted_indices, selected[order])
        assert np.array_equal(
            grouped.take(table.column("m")),
            grouped.take_selected(table.column("m")[selected]),
        )
