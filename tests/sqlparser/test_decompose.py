"""Unit tests for query decomposition into snippets (Figure 3)."""

import pytest

from repro.sqlparser import ast
from repro.sqlparser.decompose import decompose_query
from repro.sqlparser.parser import parse_query


class TestNoGroupBy:
    def test_single_aggregate_single_snippet(self):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 1")
        specs = decompose_query(query)
        assert len(specs) == 1
        assert specs[0].aggregate.function is ast.AggregateFunction.AVG
        assert specs[0].predicate == query.where
        assert specs[0].group_values == ()

    def test_multiple_aggregates(self):
        query = parse_query("SELECT AVG(a), SUM(b), COUNT(*) FROM t")
        specs = decompose_query(query)
        assert len(specs) == 3
        assert [spec.aggregate_index for spec in specs] == [0, 1, 2]

    def test_no_aggregates_yields_nothing(self):
        query = parse_query("SELECT week FROM sales")
        assert decompose_query(query) == []


class TestGroupBy:
    def test_figure3_example(self):
        """The Figure 3 decomposition: two aggregates x two group values."""
        query = parse_query(
            "SELECT A1, AVG(A2), SUM(A3) FROM r WHERE A2 > 5 GROUP BY A1"
        )
        specs = decompose_query(query, group_rows=[("a11",), ("a12",)])
        assert len(specs) == 4
        functions = {(s.group_values, s.aggregate.function) for s in specs}
        assert (((("A1", "a11"),)), ast.AggregateFunction.AVG) in functions
        assert (((("A1", "a12"),)), ast.AggregateFunction.SUM) in functions
        # Every snippet predicate conjoins the original filter with the
        # group-value equality predicate.
        for spec in specs:
            assert isinstance(spec.predicate, ast.And)
            equality = spec.predicate.predicates[-1]
            assert isinstance(equality, ast.Comparison)
            assert equality.op is ast.ComparisonOp.EQ

    def test_multi_column_group_by(self):
        query = parse_query(
            "SELECT region, week, AVG(revenue) FROM sales GROUP BY region, week"
        )
        specs = decompose_query(query, group_rows=[("east", 1), ("west", 2)])
        assert len(specs) == 2
        assert specs[0].group_values == (("region", "east"), ("week", 1))

    def test_group_row_arity_mismatch(self):
        query = parse_query("SELECT region, COUNT(*) FROM sales GROUP BY region")
        with pytest.raises(ValueError):
            decompose_query(query, group_rows=[("east", "extra")])


class TestBounds:
    def test_max_snippets_enforced(self):
        query = parse_query("SELECT region, AVG(a), SUM(b) FROM t GROUP BY region")
        group_rows = [(f"g{i}",) for i in range(100)]
        specs = decompose_query(query, group_rows=group_rows, max_snippets=10)
        assert len(specs) == 10

    def test_max_snippets_must_be_positive(self):
        query = parse_query("SELECT COUNT(*) FROM t")
        with pytest.raises(ValueError):
            decompose_query(query, max_snippets=0)
