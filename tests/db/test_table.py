"""Unit tests for repro.db.table."""

import numpy as np
import pytest

from repro.db.schema import ColumnKind, Schema, categorical_dimension, measure, numeric_dimension
from repro.db.table import Table
from repro.errors import TableError


@pytest.fixture()
def schema() -> Schema:
    return Schema.of(
        [numeric_dimension("x", ColumnKind.INT), categorical_dimension("c"), measure("m")]
    )


@pytest.fixture()
def table(schema: Schema) -> Table:
    return Table(
        "t", schema, {"x": [1, 2, 3, 4], "c": ["a", "b", "a", "b"], "m": [1.0, 2.0, 3.0, 4.0]}
    )


class TestConstruction:
    def test_lengths_must_match(self, schema):
        with pytest.raises(TableError):
            Table("t", schema, {"x": [1, 2], "c": ["a"], "m": [1.0, 2.0]})

    def test_missing_column_rejected(self, schema):
        with pytest.raises(TableError):
            Table("t", schema, {"x": [1], "c": ["a"]})

    def test_extra_column_rejected(self, schema):
        with pytest.raises(TableError):
            Table("t", schema, {"x": [1], "c": ["a"], "m": [1.0], "extra": [0]})

    @pytest.mark.parametrize("bad", [["x"], {"a": 1}])
    def test_unhashable_category_rejected(self, schema, bad):
        with pytest.raises(TableError, match="'c'"):
            Table("t", schema, {"x": [1, 2], "c": [bad, "a"], "m": [1.0, 2.0]})

    def test_unhashable_category_append_leaves_catalog_unchanged(self, table, schema):
        from repro.db.catalog import Catalog
        from repro.db.executor import ExactExecutor
        from repro.sqlparser.parser import parse_query

        catalog = Catalog.of([table], fact_tables=["t"])
        with pytest.raises(TableError):
            rows = {"x": [5, 6], "c": [["x"], "a"], "m": [5.0, 6.0]}
            catalog.append_rows("t", Table("t", schema, rows))
        assert catalog.table("t") is table
        result = ExactExecutor(catalog).execute(parse_query("SELECT AVG(m) FROM t"))
        assert result.rows[0].aggregates["avg_m"] == 2.5

    def test_dtypes(self, table):
        assert table.column("x").dtype == np.int64
        assert table.column("m").dtype == np.float64
        assert table.column("c").dtype == object

    def test_from_rows(self, schema):
        rows = [{"x": 1, "c": "a", "m": 2.0}, {"x": 2, "c": "b", "m": 3.0}]
        table = Table.from_rows("t", schema, rows)
        assert table.num_rows == 2
        assert table.row(1) == {"x": 2, "c": "b", "m": 3.0}

    def test_from_rows_missing_column(self, schema):
        with pytest.raises(TableError):
            Table.from_rows("t", schema, [{"x": 1, "c": "a"}])


class TestAlgebra:
    def test_filter(self, table):
        filtered = table.filter(np.array([True, False, True, False]))
        assert filtered.num_rows == 2
        assert list(filtered.column("x")) == [1, 3]

    def test_filter_length_mismatch(self, table):
        with pytest.raises(TableError):
            table.filter(np.array([True]))

    def test_take_and_head(self, table):
        taken = table.take(np.array([3, 0]))
        assert list(taken.column("x")) == [4, 1]
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 4

    def test_select(self, table):
        projected = table.select(["m", "x"])
        assert projected.column_names() == ["m", "x"]

    def test_with_column_adds_and_replaces(self, table):
        extended = table.with_column(measure("m2"), [1.0, 1.0, 1.0, 1.0])
        assert "m2" in extended.schema
        replaced = extended.with_column(measure("m2"), [2.0, 2.0, 2.0, 2.0])
        assert float(replaced.column("m2")[0]) == 2.0

    def test_with_column_length_mismatch(self, table):
        with pytest.raises(TableError):
            table.with_column(measure("m2"), [1.0])

    def test_append(self, table, schema):
        other = Table("t", schema, {"x": [5], "c": ["a"], "m": [5.0]})
        combined = table.append(other)
        assert combined.num_rows == 5
        assert list(combined.column("x")) == [1, 2, 3, 4, 5]

    def test_append_schema_mismatch(self, table):
        other_schema = Schema.of([measure("only")])
        other = Table("t", other_schema, {"only": [1.0]})
        with pytest.raises(TableError):
            table.append(other)

    def test_renamed_shares_data(self, table):
        renamed = table.renamed("other")
        assert renamed.name == "other"
        assert renamed.num_rows == table.num_rows
        assert renamed.column("x") is table.column("x")

    def test_row_out_of_range(self, table):
        with pytest.raises(TableError):
            table.row(10)
