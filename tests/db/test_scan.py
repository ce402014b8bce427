"""Unit tests for zone-map pruning and the morsel-driven scan driver."""

from __future__ import annotations

import numpy as np

from repro.db.expressions import evaluate_predicate
from repro.db.partition import table_partitions
from repro.db.scan import (
    ScanCounters,
    estimate_scan_rows,
    partition_maybe_mask,
    scan_selected,
)
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.sqlparser.parser import parse_query


def clustered_table(num_rows: int = 100) -> Table:
    """Week-clustered fact table: zone maps can prune week ranges."""
    schema = Schema.of(
        [
            numeric_dimension("week", ColumnKind.INT),
            categorical_dimension("region"),
            measure("revenue"),
        ]
    )
    return Table(
        "sales",
        schema,
        {
            "week": np.sort(np.arange(num_rows, dtype=np.int64) // 10),
            "region": [f"r{i // 50}" for i in range(num_rows)],  # r0 then r1
            "revenue": np.arange(num_rows, dtype=np.float64),
        },
    )


def where(sql_condition: str):
    return parse_query(f"SELECT COUNT(*) FROM sales WHERE {sql_condition}").where


class TestPruning:
    def setup_method(self):
        self.table = clustered_table()
        self.parts = table_partitions(self.table, partition_rows=20)

    def maybe(self, condition: str) -> list[bool]:
        return partition_maybe_mask(where(condition), self.table, self.parts).tolist()

    def test_numeric_range_prunes(self):
        # weeks: partition p holds weeks [2p, 2p+1].
        assert self.maybe("week >= 8") == [False, False, False, False, True]
        assert self.maybe("week < 2") == [True, False, False, False, False]
        assert self.maybe("week = 5") == [False, False, True, False, False]
        assert self.maybe("week > 9") == [False] * 5

    def test_between_prunes(self):
        assert self.maybe("week BETWEEN 4 AND 5") == [False, False, True, False, False]

    def test_in_list_prunes(self):
        assert self.maybe("week IN (0, 9)") == [True, False, False, False, True]

    def test_string_equality_prunes_by_dictionary_code(self):
        assert self.maybe("region = 'r1'") == [False, False, True, True, True]
        # A literal absent from the dictionary prunes everything.
        assert self.maybe("region = 'nope'") == [False] * 5

    def test_and_intersects_or_unions(self):
        assert self.maybe("week >= 8 AND region = 'r0'") == [False] * 5
        assert self.maybe("week < 2 OR week > 8") == [True, False, False, False, True]

    def test_not_never_prunes(self):
        assert self.maybe("NOT week = 5") == [True] * 5

    def test_estimate_scan_rows(self):
        assert estimate_scan_rows(self.table, where("week >= 8")) == 20
        assert estimate_scan_rows(self.table, None) == 100
        assert estimate_scan_rows(self.table, where("week > 9")) == 0


class TestScanSelected:
    def assert_matches_legacy(self, table: Table, condition: str):
        predicate = where(condition)
        selected, report = scan_selected(table, predicate)
        expected = np.flatnonzero(evaluate_predicate(predicate, table))
        assert np.array_equal(selected, expected)
        assert selected.dtype == np.int64
        return report

    def test_identical_to_whole_table_evaluation(self):
        table = clustered_table()
        table_partitions(table, partition_rows=20)
        for condition in (
            "week >= 8",
            "week = 3 AND region = 'r0'",
            "region = 'r1' OR week < 1",
            "revenue BETWEEN 10 AND 20",
            "region LIKE 'r%'",
            "NOT week = 5",
            "week IN (1, 2, 9)",
            "region IN ('r0', 'zzz')",
        ):
            self.assert_matches_legacy(table, condition)

    def test_all_pruned_query(self):
        table = clustered_table()
        table_partitions(table, partition_rows=20)
        selected, report = scan_selected(table, where("week > 99"))
        assert len(selected) == 0
        assert report.partitions_scanned == 0
        assert report.partitions_pruned == 5
        assert report.rows_scanned == 0

    def test_report_counts(self):
        table = clustered_table()
        table_partitions(table, partition_rows=20)
        report = self.assert_matches_legacy(table, "week >= 8")
        assert report.partitions_total == 5
        assert report.partitions_scanned == 1
        assert report.partitions_pruned == 4
        assert report.rows_scanned == 20

    def test_no_predicate_scans_everything(self):
        table = clustered_table()
        selected, report = scan_selected(table, None)
        assert np.array_equal(selected, np.arange(100))
        assert report.partitions_pruned == 0

    def test_empty_table(self):
        table = clustered_table(0)
        selected, report = scan_selected(table, where("week > 1"))
        assert len(selected) == 0
        assert report.partitions_total == 0

    def test_private_counters_and_global_both_record(self):
        table = clustered_table()
        table_partitions(table, partition_rows=20)
        counters = ScanCounters()
        scan_selected(table, where("week >= 8"), counters=counters)
        snapshot = counters.snapshot()
        assert snapshot["scans"] == 1
        assert snapshot["partitions_pruned"] == 4
        assert snapshot["prune_fraction"] == 0.8
        counters.reset()
        assert counters.snapshot()["scans"] == 0


class TestNaNSemantics:
    def make_nan_table(self) -> Table:
        schema = Schema.of([measure("x")])
        return Table(
            "sales",
            schema,
            {"x": [1.0, 2.0, float("nan"), float("nan"), 5.0, 6.0]},
        )

    def test_ne_keeps_nan_partitions(self):
        table = self.make_nan_table()
        table_partitions(table, partition_rows=2)
        predicate = where("x <> 1")
        selected, _ = scan_selected(table, predicate)
        expected = np.flatnonzero(evaluate_predicate(predicate, table))
        assert np.array_equal(selected, expected)
        # NaN rows satisfy != (NumPy semantics): rows 1..5.
        assert selected.tolist() == [1, 2, 3, 4, 5]

    def test_ordered_comparisons_prune_all_nan_partitions(self):
        table = self.make_nan_table()
        parts = table_partitions(table, partition_rows=2)
        maybe = partition_maybe_mask(where("x < 100"), table, parts)
        assert maybe.tolist() == [True, False, True]
        predicate = where("x < 100")
        selected, _ = scan_selected(table, predicate)
        assert np.array_equal(
            selected, np.flatnonzero(evaluate_predicate(predicate, table))
        )
