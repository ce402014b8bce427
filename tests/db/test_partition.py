"""Unit tests for the partitioned storage layer and the codes it reads."""

from __future__ import annotations

import numpy as np

from repro.db.partition import (
    distinct_count,
    numeric_bounds,
    numeric_has_nan,
    table_partitions,
)
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table


def make_table(num_rows: int, name: str = "t") -> Table:
    schema = Schema.of(
        [
            numeric_dimension("week", ColumnKind.INT),
            categorical_dimension("region"),
            measure("revenue"),
        ]
    )
    return Table(
        name,
        schema,
        {
            "week": np.arange(num_rows, dtype=np.int64),
            "region": [f"r{i % 5}" for i in range(num_rows)],
            "revenue": np.arange(num_rows, dtype=np.float64) * 0.5,
        },
    )


class TestPartitionBounds:
    def test_non_dividing_row_count(self):
        table = make_table(103)
        parts = table_partitions(table, partition_rows=16)
        assert parts.num_partitions == 7
        assert parts.bounds[0] == (0, 16)
        assert parts.bounds[-1] == (96, 103)
        assert sum(end - start for start, end in parts.bounds) == 103

    def test_exactly_dividing_row_count(self):
        table = make_table(64)
        parts = table_partitions(table, partition_rows=16)
        assert parts.num_partitions == 4
        assert parts.bounds[-1] == (48, 64)

    def test_empty_table(self):
        table = make_table(0)
        parts = table_partitions(table, partition_rows=16)
        assert parts.num_partitions == 0
        assert parts.bounds == ()

    def test_memoised_per_instance(self):
        table = make_table(50)
        assert table_partitions(table, partition_rows=8) is table_partitions(table)


class TestZoneMaps:
    def test_numeric_min_max(self):
        table = make_table(40)
        parts = table_partitions(table, partition_rows=10)
        zone = parts.zone_maps[1].numeric["week"]
        assert (zone.low, zone.high) == (10.0, 19.0)
        zone = parts.zone_maps[3].numeric["revenue"]
        assert (zone.low, zone.high) == (15.0, 19.5)
        assert not zone.has_nan

    def test_nan_aware_zones(self):
        schema = Schema.of([measure("x")])
        table = Table(
            "nans",
            schema,
            {"x": [1.0, float("nan"), 3.0, float("nan"), float("nan"), float("nan")]},
        )
        parts = table_partitions(table, partition_rows=3)
        first = parts.zone_maps[0].numeric["x"]
        assert (first.low, first.high, first.has_nan) == (1.0, 3.0, True)
        second = parts.zone_maps[1].numeric["x"]
        assert second.all_nan and second.has_nan

    def test_categorical_code_sets(self):
        table = make_table(10)  # regions cycle r0..r4
        parts = table_partitions(table, partition_rows=5)
        for zone_map in parts.zone_maps:
            assert zone_map.categorical["region"] == frozenset(range(5))
        assert table.dictionary("region").values.tolist() == ["r0", "r1", "r2", "r3", "r4"]


class TestColumnDictionary:
    """A table stores a categorical column as first-seen codes + a dictionary."""

    def test_first_seen_codes(self):
        schema = Schema.of([categorical_dimension("c")])
        table = Table("d", schema, {"c": ["b", "a", "b", "c", "a"]})
        dictionary = table.dictionary("c")
        assert dictionary.values.tolist() == ["b", "a", "c"]
        assert dictionary.index == {"b": 0, "a": 1, "c": 2}
        assert table.codes("c").tolist() == [0, 1, 0, 2, 1]
        assert table.column("c").tolist() == ["b", "a", "b", "c", "a"]

    def test_append_extends_without_renumbering(self):
        schema = Schema.of([categorical_dimension("c")])
        table = Table("d", schema, {"c": ["b", "a"]})
        appended = table.append(Table("d", schema, {"c": ["z", "a"]}))
        extended = appended.dictionary("c")
        assert extended.values.tolist() == ["b", "a", "z"]
        assert table.dictionary("c").values.tolist() == ["b", "a"]  # never mutated
        assert appended.codes("c")[:2].tolist() == table.codes("c").tolist()
        assert appended.codes("c").tolist() == [0, 1, 2, 1]
        # An append whose rows share the dictionary keeps it as is.
        same = table.append(table.take(np.array([1, 1, 0])))
        assert same.dictionary("c") is table.dictionary("c")
        assert same.codes("c").tolist() == [0, 1, 1, 1, 0]

    def test_slice_view_shares_dictionary(self):
        table = make_table(30)
        view = table.slice_rows(10, 20)
        assert view.dictionary("region") is table.dictionary("region")
        assert np.shares_memory(view.codes("region"), table.codes("region"))
        assert view.codes("region").tolist() == table.codes("region")[10:20].tolist()
        taken = table.take(np.array([4, 2]))
        assert taken.dictionary("region") is table.dictionary("region")
        assert taken.column("region").tolist() == ["r4", "r2"]


class TestAppendReuse:
    def test_full_prefix_partitions_reused(self):
        table = make_table(32)
        before = table_partitions(table, partition_rows=8)
        appended = table.append(make_table(20))
        after = table_partitions(appended)
        assert after.partition_rows == 8
        assert after.num_partitions == 7  # 52 rows / 8
        # The four full prefix partitions keep their zone maps verbatim.
        for index in range(4):
            assert after.zone_maps[index] is before.zone_maps[index]

    def test_partial_tail_partition_rebuilt(self):
        table = make_table(30)  # last partition 24..30 is partial
        before = table_partitions(table, partition_rows=8)
        appended = table.append(make_table(10))
        after = table_partitions(appended)
        assert [after.zone_maps[i] is before.zone_maps[i] for i in range(3)] == [True] * 3
        assert after.zone_maps[3] is not before.zone_maps[3]
        # Rebuilt tail covers the merged rows: weeks 24..29 from the old
        # table plus weeks 0..1 from the appended rows.
        zone = after.zone_maps[3].numeric["week"]
        assert (zone.low, zone.high) == (0.0, 29.0)
        assert after.bounds[-1] == (32, 40)

    def test_append_zone_maps_match_fresh_build(self):
        table = make_table(30)
        table_partitions(table, partition_rows=8)
        appended = table.append(make_table(10))
        reused = table_partitions(appended)
        values = {name: appended.column(name) for name in appended.column_names()}
        fresh = Table("t", appended.schema, values)
        rebuilt = table_partitions(fresh, partition_rows=8)
        assert reused.bounds == rebuilt.bounds
        for left, right in zip(reused.zone_maps, rebuilt.zone_maps):
            assert left.numeric == right.numeric
            assert left.categorical == right.categorical


class TestTableStats:
    def test_numeric_bounds_merge(self):
        table = make_table(100)
        table_partitions(table, partition_rows=16)
        assert numeric_bounds(table, "week") == (0.0, 99.0)
        assert numeric_bounds(table, "revenue") == (0.0, 49.5)

    def test_numeric_bounds_all_nan(self):
        table = Table("n", Schema.of([measure("x")]), {"x": [float("nan")] * 4})
        assert numeric_bounds(table, "x") is None
        assert numeric_has_nan(table, "x")

    def test_distinct_count(self):
        table = make_table(100)
        assert distinct_count(table, "region") == 5

    def test_distinct_count_counts_values_present(self):
        table = make_table(100)  # r0..r4
        assert distinct_count(table.filter(table.column("week") % 5 == 3), "region") == 1
        taken = table.take(np.array([0, 1, 5]))
        assert len(taken.dictionary("region")) == 5
        assert distinct_count(taken, "region") == 2
        extra = Table(
            "t", table.schema, {"week": [0, 1], "region": ["r9", "r0"], "revenue": [0.0, 1.0]}
        )
        assert distinct_count(taken.append(extra), "region") == 3

    def test_has_nan_false_for_clean_column(self):
        table = make_table(10)
        assert not numeric_has_nan(table, "revenue")


class TestLineageRegistry:
    def test_slice_bounds_clamped(self):
        table = make_table(10)
        view = table.slice_rows(-5, 99)
        assert len(view) == 10
        assert view.column("week").tolist() == table.column("week").tolist()
