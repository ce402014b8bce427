"""Property-based equivalence of the partitioned scan layer.

The partitioned, pruned execution path must be **byte-identical** to the
retained legacy paths:

* ``scan_selected`` == ``np.flatnonzero(evaluate_predicate(...))`` for every
  predicate shape, row count (including counts that do not divide the
  partition size), NaN placement, and append history;
* ``ExactExecutor()`` == the ``vectorized=False`` row loop for whole query
  results (group order, key tuples, aggregate floats);
* both hold for every *run shape* the morsel driver can produce: a pruned
  partition splitting two runs, runs longer than the morsel cap, a partial
  trailing partition after an append;
* dictionary-encoded categorical predicates == the retained per-row loops;
* the same query scanned by several threads at once (one thread per query)
  is deterministic.
"""

from __future__ import annotations

import math
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.db import scan as scan_module
from repro.db.catalog import Catalog
from repro.db.executor import ExactExecutor
from repro.db.expressions import _comparison_mask, evaluate_predicate
from repro.db.partition import table_partitions
from repro.db.scan import scan_selected
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query

REGIONS = ["east", "west", "north", "sd"]

CONDITIONS = [
    "week >= 6",
    "week < 3",
    "week = 4",
    "week <> 4",
    "region = 'east'",
    "region <> 'east'",
    "region = 'absent'",
    "region IN ('east', 'sd')",
    "region NOT IN ('east', 'sd')",
    "region LIKE '%s%'",
    "region NOT LIKE 'e___'",
    "region BETWEEN 'a' AND 'n'",
    "m BETWEEN -10 AND 10",
    "week IN (0, 7, 99)",
    "week >= 2 AND region = 'west'",
    "week < 1 OR week > 8 OR region = 'north'",
    "NOT week = 3",
    "week > 100",  # prunes everything
    "m + week > 5",  # derived expression: never prunes, still correct
]

QUERIES = [
    "SELECT COUNT(*), FREQ(*) FROM t WHERE {cond}",
    "SELECT SUM(m), AVG(m), MIN(m), MAX(m) FROM t WHERE {cond}",
    "SELECT region, SUM(m), COUNT(*) FROM t WHERE {cond} GROUP BY region",
    "SELECT week, region, AVG(m) FROM t WHERE {cond} GROUP BY week, region",
]


def build_table(weeks, regions, measures) -> Table:
    schema = Schema.of(
        [
            numeric_dimension("week", ColumnKind.INT),
            categorical_dimension("region"),
            measure("m"),
        ]
    )
    return Table("t", schema, {"week": weeks, "region": regions, "m": measures})


def assert_results_identical(left, right):
    assert [r.group_values for r in left.rows] == [r.group_values for r in right.rows]
    for new_row, old_row in zip(left.rows, right.rows):
        for name in new_row.aggregates:
            a, b = new_row.aggregates[name], old_row.aggregates[name]
            assert a == b or (math.isnan(a) and math.isnan(b)), (name, a, b)


table_inputs = st.integers(min_value=0, max_value=120).flatmap(
    lambda rows: st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=9), min_size=rows, max_size=rows
        ),
        st.lists(st.sampled_from(REGIONS), min_size=rows, max_size=rows),
        st.lists(
            st.sampled_from([-4.5, 0.0, 1.25, 3.0, 88.0, float("nan")]),
            min_size=rows,
            max_size=rows,
        ),
    )
)


class TestScanSelectionEquivalence:
    @given(
        data=table_inputs,
        partition_rows=st.sampled_from([3, 7, 16]),
        condition=st.sampled_from(CONDITIONS),
    )
    @settings(max_examples=120, deadline=None)
    def test_selected_indices_match_legacy_mask(self, data, partition_rows, condition):
        weeks, regions, measures = data
        table = build_table(weeks, regions, measures)
        table_partitions(table, partition_rows=partition_rows)
        predicate = parse_query(f"SELECT COUNT(*) FROM t WHERE {condition}").where
        selected, report = scan_selected(table, predicate)
        expected = np.flatnonzero(evaluate_predicate(predicate, table))
        assert np.array_equal(selected, expected)
        assert report.rows_scanned <= report.rows_total
        assert report.partitions_scanned + report.partitions_pruned == report.partitions_total


class TestExecutorEquivalence:
    @given(
        data=table_inputs,
        partition_rows=st.sampled_from([4, 9, 32]),
        condition=st.sampled_from(CONDITIONS),
        query_template=st.sampled_from(QUERIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_partitioned_equals_legacy_row_loop(
        self, data, partition_rows, condition, query_template
    ):
        weeks, regions, measures = data
        table = build_table(weeks, regions, measures)
        table_partitions(table, partition_rows=partition_rows)
        catalog = Catalog.of([table], fact_tables=["t"])
        query = parse_query(query_template.format(cond=condition))

        partitioned = ExactExecutor(catalog)
        legacy = ExactExecutor(catalog, vectorized=False)
        assert_results_identical(partitioned.execute(query), legacy.execute(query))

    @given(data=table_inputs, condition=st.sampled_from(CONDITIONS))
    @settings(max_examples=40, deadline=None)
    def test_append_mid_trace_stays_identical(self, data, condition):
        weeks, regions, measures = data
        table = build_table(weeks, regions, measures)
        table_partitions(table, partition_rows=8)
        catalog = Catalog.of([table], fact_tables=["t"])
        query = parse_query(f"SELECT region, SUM(m), COUNT(*) FROM t WHERE {condition} GROUP BY region")
        partitioned = ExactExecutor(catalog)
        legacy = ExactExecutor(catalog, vectorized=False)
        assert_results_identical(partitioned.execute(query), legacy.execute(query))
        # Append (reusing prefix partitions) and compare again.
        delta = build_table(weeks[: len(weeks) // 2], regions[: len(weeks) // 2], measures[: len(weeks) // 2])
        catalog.append_rows("t", delta)
        assert_results_identical(partitioned.execute(query), legacy.execute(query))


class TestRunShapes:
    """Morsels are runs of adjacent survivors: every shape == the row loop."""

    GROUPED = "SELECT region, SUM(m), COUNT(*) FROM t WHERE {cond} GROUP BY region"

    def clustered(self, rows: int = 100, partition_rows: int = 10) -> Table:
        """``week`` = row // 10, sorted: one week per 10-row partition."""
        table = build_table(
            [row // 10 for row in range(rows)],
            [REGIONS[row % 3] for row in range(rows)],
            [float(row % 7) for row in range(rows)],
        )
        table_partitions(table, partition_rows=partition_rows)
        return table

    def assert_scan_and_results_match(self, table, condition):
        predicate = parse_query(f"SELECT COUNT(*) FROM t WHERE {condition}").where
        selected, report = scan_selected(table, predicate)
        assert np.array_equal(
            selected, np.flatnonzero(evaluate_predicate(predicate, table))
        )
        catalog = Catalog.of([table], fact_tables=["t"])
        query = parse_query(self.GROUPED.format(cond=condition))
        assert_results_identical(
            ExactExecutor(catalog).execute(query),
            ExactExecutor(catalog, vectorized=False).execute(query),
        )
        return report

    def test_pruned_partition_splits_two_runs(self, recorded_morsels):
        table = self.clustered()
        with recorded_morsels() as sizes:
            report = self.assert_scan_and_results_match(table, "week <> 4")
        # Partition 4 (rows 40..49) is pruned: one evaluation per side of
        # it, per scan (the helper scans twice: selection, then executor).
        assert sizes == [40, 50, 40, 50]
        assert (report.partitions_scanned, report.partitions_pruned) == (9, 1)
        assert report.rows_scanned == 90

    def test_run_longer_than_the_cap_is_cut(self, recorded_morsels):
        table = self.clustered()
        with mock.patch.object(scan_module, "MORSEL_ROWS", 25), recorded_morsels() as sizes:
            report = self.assert_scan_and_results_match(table, "week <> 4")
        assert sizes[:4] == [25, 15, 25, 25]
        assert (report.partitions_scanned, report.rows_scanned) == (9, 90)

    def test_append_with_partial_trailing_partition(self):
        table = self.clustered(rows=37, partition_rows=8)
        catalog = Catalog.of([table], fact_tables=["t"])
        catalog.append_rows("t", self.clustered(rows=13))
        appended = catalog.table("t")
        assert table_partitions(appended).bounds[-1] == (48, 50)
        for condition in ("week >= 1", "week <> 2", "region = 'west'"):
            report = self.assert_scan_and_results_match(appended, condition)
            assert report.rows_total == 50

    @given(
        data=table_inputs,
        partition_rows=st.sampled_from([3, 7, 16]),
        cap=st.sampled_from([1, 5, 16, 1000]),
        condition=st.sampled_from(CONDITIONS),
        append=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_run_shape_matches_row_loop(
        self, data, partition_rows, cap, condition, append
    ):
        weeks, regions, measures = data
        table = build_table(weeks, regions, measures)
        table_partitions(table, partition_rows=partition_rows)
        if append:
            half = len(weeks) // 2
            catalog = Catalog.of([table], fact_tables=["t"])
            catalog.append_rows(
                "t", build_table(weeks[:half], regions[:half], measures[:half])
            )
            table = catalog.table("t")
        with mock.patch.object(scan_module, "MORSEL_ROWS", cap):
            self.assert_scan_and_results_match(table, condition)


class TestDictionaryPredicateEquivalence:
    """Satellite: dictionary-code comparisons == the retained per-row loops."""

    object_columns = st.lists(
        st.sampled_from(["east", "west", "", "e", 3, 7.5, None, float("nan")]),
        min_size=0,
        max_size=60,
    )

    @given(values=object_columns, literal=st.sampled_from(["east", "", 3, 7.5]))
    @settings(max_examples=80, deadline=None)
    def test_equality_mask_identical(self, values, literal):
        schema = Schema.of([categorical_dimension("c")])
        table = Table("t", schema, {"c": values})
        column = table.column("c")
        for op in (ast.ComparisonOp.EQ, ast.ComparisonOp.NE):
            legacy = _comparison_mask(column, op, literal)
            predicate = ast.Comparison(
                left=ast.ColumnRef(name="c"), op=op, right=ast.Literal(value=literal)
            )
            new = evaluate_predicate(predicate, table)
            assert np.array_equal(new, legacy)

    @given(values=object_columns)
    @settings(max_examples=60, deadline=None)
    def test_in_list_mask_identical(self, values):
        schema = Schema.of([categorical_dimension("c")])
        table = Table("t", schema, {"c": values})
        allowed = ("east", 3, "")
        for negated in (False, True):
            legacy = np.asarray([v in set(allowed) for v in table.column("c")], dtype=bool)
            if negated:
                legacy = ~legacy
            predicate = ast.InPredicate(
                column=ast.ColumnRef(name="c"), values=allowed, negated=negated
            )
            assert np.array_equal(evaluate_predicate(predicate, table), legacy)

    @given(
        values=st.lists(st.sampled_from(REGIONS + ["zz", "aaa"]), max_size=60),
        low=st.sampled_from(["a", "e", "n"]),
        high=st.sampled_from(["f", "w", "zzz"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_between_mask_identical(self, values, low, high):
        schema = Schema.of([categorical_dimension("c")])
        table = Table("t", schema, {"c": values})
        legacy = np.asarray([low <= v <= high for v in table.column("c")], dtype=bool)
        predicate = ast.BetweenPredicate(column=ast.ColumnRef(name="c"), low=low, high=high)
        assert np.array_equal(evaluate_predicate(predicate, table), legacy)

    @given(
        values=st.lists(st.sampled_from(REGIONS + ["", "easter"]), max_size=60),
        pattern=st.sampled_from(["e%", "%st", "_est", "%s%", "east", "%"]),
        negated=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_like_mask_identical(self, values, pattern, negated):
        from repro.db.expressions import _like_regex

        schema = Schema.of([categorical_dimension("c")])
        table = Table("t", schema, {"c": values})
        regex = _like_regex(pattern)
        legacy = np.asarray(
            [regex.fullmatch(str(v)) is not None for v in table.column("c")], dtype=bool
        )
        if negated:
            legacy = ~legacy
        predicate = ast.LikePredicate(
            column=ast.ColumnRef(name="c"), pattern=pattern, negated=negated
        )
        assert np.array_equal(evaluate_predicate(predicate, table), legacy)


class TestConcurrentQueryDeterminism:
    def test_hammer_concurrent_scans(self):
        rng = np.random.default_rng(3)
        rows = 5000
        table = build_table(
            np.sort(rng.integers(0, 10, rows)).tolist(),
            [REGIONS[i] for i in rng.integers(0, len(REGIONS), rows)],
            rng.normal(0.0, 10.0, rows).tolist(),
        )
        table_partitions(table, partition_rows=256)
        catalog = Catalog.of([table], fact_tables=["t"])
        query = parse_query(
            "SELECT region, SUM(m), AVG(m), COUNT(*) FROM t "
            "WHERE week >= 4 AND region <> 'sd' GROUP BY region"
        )
        reference = ExactExecutor(catalog, vectorized=False).execute(query)
        expected = np.flatnonzero(evaluate_predicate(query.where, table))
        failures: list[str] = []

        def hammer() -> None:
            executor = ExactExecutor(catalog)
            for _ in range(10):
                selected, _ = scan_selected(table, query.where)
                if not np.array_equal(selected, expected):
                    failures.append("selection diverged")
                try:
                    assert_results_identical(executor.execute(query), reference)
                except AssertionError as error:
                    failures.append(repr(error))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert failures == []
