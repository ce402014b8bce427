"""Unit tests for repro.db.schema."""

import pytest

from repro.db.schema import (
    Column,
    ColumnKind,
    ColumnRole,
    Schema,
    categorical_dimension,
    key,
    measure,
    numeric_dimension,
)
from repro.errors import SchemaError


class TestColumn:
    def test_measure_must_be_numeric(self):
        with pytest.raises(SchemaError):
            Column("bad", ColumnKind.CATEGORY, ColumnRole.MEASURE)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnKind.FLOAT)

    def test_kind_predicates(self):
        assert numeric_dimension("x").is_numeric
        assert not numeric_dimension("x").is_categorical
        assert categorical_dimension("c").is_categorical
        assert not categorical_dimension("c").is_numeric

    def test_helper_constructors_assign_roles(self):
        assert measure("m").role is ColumnRole.MEASURE
        assert key("k").role is ColumnRole.KEY
        assert numeric_dimension("d").role is ColumnRole.DIMENSION
        assert categorical_dimension("c").role is ColumnRole.DIMENSION

    def test_numeric_dimension_rejects_categorical_kind(self):
        with pytest.raises(SchemaError):
            numeric_dimension("d", ColumnKind.CATEGORY)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of([measure("a"), numeric_dimension("a")])

    def test_lookup_and_contains(self):
        schema = Schema.of([measure("a"), categorical_dimension("b")])
        assert "a" in schema
        assert "missing" not in schema
        assert schema.column("b").is_categorical
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_role_filters(self):
        schema = Schema.of(
            [measure("m"), numeric_dimension("d"), categorical_dimension("c"), key("k")]
        )
        assert sorted(c.name for c in schema.dimension_columns()) == ["c", "d"]
        assert [c.name for c in schema.key_columns()] == ["k"]
        assert schema.names() == ["m", "d", "c", "k"]
        assert len(schema) == 4

    def test_merged_with_keeps_first_occurrence(self):
        left = Schema.of([key("id"), measure("x")])
        right = Schema.of([key("id"), categorical_dimension("c")])
        merged = left.merged_with(right)
        assert merged.names() == ["id", "x", "c"]
        assert merged.column("id").role is ColumnRole.KEY

    def test_iteration_order(self):
        columns = [measure("a"), measure("b")]
        schema = Schema.of(columns)
        assert [c.name for c in schema] == ["a", "b"]
