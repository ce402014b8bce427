"""Unit tests for the exact query executor."""

import numpy as np
import pytest

from repro.db.executor import ExactExecutor
from repro.sqlparser.parser import parse_query
from tests import oracles


@pytest.fixture()
def executor(tiny_catalog):
    return ExactExecutor(tiny_catalog)


class TestScalarAggregates:
    def test_count_star(self, executor):
        result = executor.execute(parse_query("SELECT COUNT(*) FROM tiny"))
        assert result.scalar() == 5

    def test_count_with_predicate(self, executor):
        result = executor.execute(
            parse_query("SELECT COUNT(*) FROM tiny WHERE revenue >= 30")
        )
        assert result.scalar() == 3

    def test_avg(self, executor):
        result = executor.execute(parse_query("SELECT AVG(revenue) FROM tiny"))
        assert result.scalar() == pytest.approx(30.0)

    def test_sum(self, executor):
        result = executor.execute(
            parse_query("SELECT SUM(revenue) FROM tiny WHERE region = 'east'")
        )
        assert result.scalar() == pytest.approx(90.0)

    def test_min_max(self, executor):
        result = executor.execute(
            parse_query("SELECT MIN(revenue), MAX(revenue) FROM tiny")
        )
        row = result.rows[0]
        assert row.aggregates["min_revenue"] == 10.0
        assert row.aggregates["max_revenue"] == 50.0

    def test_derived_attribute(self, executor):
        result = executor.execute(
            parse_query("SELECT SUM(revenue * (1 - discount)) FROM tiny")
        )
        expected = 10 * 0.9 + 20 * 0.8 + 30 * 1.0 + 40 * 0.5 + 50 * 0.7
        assert result.scalar() == pytest.approx(expected)

    def test_empty_selection_yields_zero(self, executor):
        result = executor.execute(
            parse_query("SELECT SUM(revenue), AVG(revenue), COUNT(*) FROM tiny WHERE week = 99")
        )
        row = result.rows[0]
        assert row.aggregates["count_star"] == 0
        assert row.aggregates["sum_revenue"] == 0.0
        assert row.aggregates["avg_revenue"] == 0.0

    def test_freq(self, executor):
        result = executor.execute(parse_query("SELECT FREQ(*) FROM tiny WHERE week = 1"))
        assert result.scalar() == pytest.approx(2 / 5)


class TestGroupBy:
    def test_group_by_region(self, executor):
        result = executor.execute(
            parse_query("SELECT region, SUM(revenue), COUNT(*) FROM tiny GROUP BY region")
        )
        by_group = result.by_group()
        assert by_group[("east",)].aggregates["sum_revenue"] == pytest.approx(90.0)
        assert by_group[("west",)].aggregates["sum_revenue"] == pytest.approx(60.0)
        assert by_group[("east",)].aggregates["count_star"] == 3

    def test_group_by_with_predicate(self, executor):
        result = executor.execute(
            parse_query(
                "SELECT week, AVG(revenue) FROM tiny WHERE region = 'east' GROUP BY week"
            )
        )
        by_group = result.by_group()
        assert set(by_group) == {(1,), (2,), (3,)}
        assert by_group[(3,)].aggregates["avg_revenue"] == pytest.approx(50.0)

    def test_group_rows_preserve_first_seen_order(self, executor):
        result = executor.execute(
            parse_query("SELECT week, COUNT(*) FROM tiny GROUP BY week")
        )
        assert result.group_rows() == [(1,), (2,), (3,)]

    def test_having_filters_groups(self, executor):
        result = executor.execute(
            parse_query(
                "SELECT region, SUM(revenue) FROM tiny GROUP BY region "
                "HAVING sum_revenue > 70"
            )
        )
        assert [row.group_values for row in result.rows] == [("east",)]

    def test_having_on_alias(self, executor):
        result = executor.execute(
            parse_query(
                "SELECT region, SUM(revenue) AS total FROM tiny GROUP BY region "
                "HAVING total >= 60"
            )
        )
        assert len(result.rows) == 2

    def test_group_by_against_brute_force(self, sales_catalog, small_sales_table):
        executor = ExactExecutor(sales_catalog)
        result = executor.execute(
            parse_query(
                "SELECT region, AVG(revenue) FROM sales WHERE week >= 10 AND week <= 20 "
                "GROUP BY region"
            )
        )
        weeks = np.asarray(small_sales_table.column("week"))
        revenue = np.asarray(small_sales_table.column("revenue"))
        regions = small_sales_table.column("region")
        mask = (weeks >= 10) & (weeks <= 20)
        for row in result.rows:
            region = row.group_values[0]
            chosen = mask & (regions == region)
            assert row.aggregates["avg_revenue"] == pytest.approx(revenue[chosen].mean())


class TestJoinsAndScalars:
    def test_join_group_by(self, star_catalog):
        executor = ExactExecutor(star_catalog)
        result = executor.execute(
            parse_query(
                "SELECT region, SUM(amount) FROM orders "
                "JOIN stores ON store_id = store_id GROUP BY region"
            )
        )
        by_group = result.by_group()
        assert by_group[("east",)].aggregates["sum_amount"] == pytest.approx(150.0)
        assert by_group[("west",)].aggregates["sum_amount"] == pytest.approx(60.0)

    def test_scalar_requires_single_cell(self, executor):
        result = executor.execute(
            parse_query("SELECT region, COUNT(*) FROM tiny GROUP BY region")
        )
        with pytest.raises(ValueError):
            result.scalar()


class TestVectorizedLegacyParity:
    def test_count_of_categorical_column(self, tiny_catalog):
        # COUNT never evaluates its argument, so counting a non-numeric
        # column must work (regression: the factorized path once
        # float64-cast every aggregate argument eagerly).
        query = parse_query("SELECT week, COUNT(region) FROM tiny GROUP BY week")
        from repro.db.executor import ExactExecutor

        result = ExactExecutor(tiny_catalog).execute(query)
        expected = oracles.execute(tiny_catalog, query)
        assert [r.group_values for r in result.rows] == [
            r.group_values for r in expected.rows
        ]
        for new_row, old_row in zip(result.rows, expected.rows):
            assert new_row.aggregates == old_row.aggregates

    def test_empty_selection_never_evaluates_measure(self, tiny_catalog):
        # SUM/AVG over an empty selection is 0.0 *without* evaluating the
        # argument, so even a non-numeric argument must not crash.
        from repro.db.executor import ExactExecutor

        query = parse_query("SELECT SUM(region) FROM tiny WHERE week = 99")
        result = ExactExecutor(tiny_catalog).execute(query)
        assert result.rows[0].aggregates["sum_region"] == 0.0
        assert oracles.execute(tiny_catalog, query).rows == result.rows

    def test_empty_selection_group_by_non_numeric_measure(self, tiny_catalog):
        from repro.db.executor import ExactExecutor

        query = parse_query(
            "SELECT week, AVG(region) FROM tiny WHERE week = 99 GROUP BY week"
        )
        assert ExactExecutor(tiny_catalog).execute(query).rows == []
        assert oracles.execute(tiny_catalog, query).rows == []
