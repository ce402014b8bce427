"""Partitioned scan layer vs the legacy whole-table scan.

Measures the scan optimisations of the partitioned storage subsystem on a
selective-predicate group-by over a 100k+-row fact table:

* **zone-map pruning** -- the fact table is time-clustered (rows arrive in
  ``week`` order), so a selective week predicate skips most partitions
  without touching their arrays;
* **dictionary-encoded string predicates** -- equality/IN over a categorical
  column evaluates once per distinct value and gathers through int64 codes,
  replacing the pre-dictionary per-row Python loop (the retained reference
  path, re-enabled here via ``set_dictionary_predicates(False)``);
* **morsel-driven scan** -- runs of adjacent surviving partitions are
  evaluated one morsel at a time on the calling thread and concatenated in
  row order.  The **full-scan** level (a predicate over an unclustered
  column, which no zone map can prune) measures the fixed cost of the
  zone-map mask and run detection when nothing is pruned.

The baseline is built here, not kept in ``src/``: the executor with its scan
driver swapped for one whole-table ``evaluate_predicate`` pass.

Every timed pair asserts that both paths return *identical* answers (group
order and aggregate floats) before anything is reported, so the benchmark
doubles as an equivalence smoke test.  The headline number (``combined.speedup``)
is pruning + dictionary codes against the legacy scan, and the acceptance
gate requires it to be >= 3x.

Run as a script to (re)generate the committed JSON artifacts::

    PYTHONPATH=src python benchmarks/bench_scan.py

which writes ``benchmarks/results/scan.json`` and the repo-root
perf-trajectory datapoint ``BENCH_scan.json``.  CI runs::

    PYTHONPATH=src python benchmarks/bench_scan.py --smoke

on a smaller workload and fails if the partitioned scan is slower than the
legacy path.  It can also run under pytest:  pytest benchmarks/bench_scan.py
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from repro.db import executor as executor_module
from repro.db.catalog import Catalog
from repro.db.executor import ExactExecutor
from repro.db.expressions import evaluate_predicate, set_dictionary_predicates
from repro.db.partition import table_partitions
from repro.db.schema import (
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.sqlparser.parser import parse_query

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Selective numeric predicate over the clustered week column (zone maps
#: prune).  Scalar aggregates keep the timing dominated by the scan itself
#: rather than by the (shared) group-by machinery.
PRUNING_QUERY = (
    "SELECT SUM(revenue), AVG(discount), COUNT(*) "
    "FROM sales WHERE week >= {week_cut}"
)
#: Selective string predicate (unclustered): the dictionary win.
DICTIONARY_QUERY = (
    "SELECT region, SUM(revenue), COUNT(*) "
    "FROM sales WHERE status = 'gold' OR status = 'vip' GROUP BY region"
)
#: The headline: pruning + dictionary codes vs the pre-partition
#: whole-table scan with per-row string comparisons.
COMBINED_QUERY = (
    "SELECT region, SUM(revenue), AVG(discount), COUNT(*) "
    "FROM sales WHERE week >= {week_cut} AND status = 'gold' GROUP BY region"
)
#: ``discount`` is uniform and independent of row position: every partition
#: spans the cut, nothing prunes, and the scan is one whole-table run cut
#: only at the morsel cap.
FULL_SCAN_QUERY = "SELECT SUM(revenue), COUNT(*) FROM sales WHERE discount >= 0.5"


def make_workload(num_rows: int, num_weeks: int, num_regions: int, seed: int = 7):
    """A time-clustered sales fact table (rows arrive in week order)."""
    rng = np.random.default_rng(seed)
    statuses = ["bronze", "silver", "gold", "vip", "churned"]
    sales = Table(
        "sales",
        Schema.of(
            [
                numeric_dimension("week"),
                categorical_dimension("region"),
                categorical_dimension("status"),
                measure("revenue"),
                measure("discount"),
            ]
        ),
        {
            "week": np.sort(rng.integers(0, num_weeks, num_rows)).astype(np.float64),
            "region": [f"region_{i:03d}" for i in rng.integers(0, num_regions, num_rows)],
            "status": [statuses[i] for i in rng.integers(0, len(statuses), num_rows)],
            "revenue": rng.normal(100.0, 20.0, num_rows),
            "discount": rng.uniform(0.0, 1.0, num_rows),
        },
    )
    return Catalog.of([sales], fact_tables=["sales"]), sales


def best_of(repeats: int, function, *args):
    """Minimum wall-clock seconds of ``repeats`` calls (returns last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def assert_identical_results(partitioned, legacy) -> None:
    assert [r.group_values for r in partitioned.rows] == [
        r.group_values for r in legacy.rows
    ], "group order diverged between partitioned and legacy scans"
    for new_row, old_row in zip(partitioned.rows, legacy.rows):
        assert new_row.aggregates == old_row.aggregates, "aggregate values diverged"


def _whole_table_selected(table, predicate, counters=None):
    """Stand-in for ``scan_selected``: no partitions, no pruning."""
    return np.flatnonzero(evaluate_predicate(predicate, table)), None


@contextmanager
def legacy_scan():
    """Inside: the pre-partition scan -- whole-table masks, per-row string loops.

    Entered once around a timing loop, never per timed call, so the swap
    itself stays off the clock.
    """
    previous = set_dictionary_predicates(False)
    try:
        with mock.patch.object(executor_module, "scan_selected", _whole_table_selected):
            yield
    finally:
        set_dictionary_predicates(previous)


def time_legacy(executor: ExactExecutor, query, repeats):
    """(best seconds, result) of ``query`` under :func:`legacy_scan`."""
    with legacy_scan():
        return best_of(repeats, executor.execute, query)


def time_pair(legacy_executor, new_callable, query, repeats):
    """(legacy_seconds, new_seconds) with answers asserted identical first."""
    new_result = new_callable(query)
    legacy_seconds, legacy_result = time_legacy(legacy_executor, query, repeats)
    assert_identical_results(new_result, legacy_result)
    new_seconds, _ = best_of(repeats, new_callable, query)
    return legacy_seconds, new_seconds


def run_benchmark(num_rows: int, num_weeks: int, num_regions: int, repeats: int) -> dict:
    catalog, sales = make_workload(num_rows, num_weeks, num_regions)
    week_cut = num_weeks - max(1, num_weeks // 60)  # ~1.7% of the weeks
    pruning_query = parse_query(PRUNING_QUERY.format(week_cut=week_cut))
    dictionary_query = parse_query(DICTIONARY_QUERY)
    combined_query = parse_query(COMBINED_QUERY.format(week_cut=week_cut))
    full_scan_query = parse_query(FULL_SCAN_QUERY)

    legacy = ExactExecutor(catalog)
    partitioned = ExactExecutor(catalog)

    # Warm derived state (partitions, zone maps, dictionaries, group codes)
    # once: steady-state latency is what the scan layer optimises.
    table_partitions(sales)
    partitioned.execute(pruning_query)
    partitioned.execute(combined_query)
    partitioned.execute(dictionary_query)

    # -- zone-map pruning (numeric clustered predicate) ----------------------
    pruning = {}
    legacy_seconds, partitioned_seconds = time_pair(
        legacy, partitioned.execute, pruning_query, repeats
    )
    pruning["unpartitioned_seconds"] = legacy_seconds
    pruning["partitioned_seconds"] = partitioned_seconds
    pruning["speedup"] = legacy_seconds / max(partitioned_seconds, 1e-12)
    report = partitioned.last_scan_report
    pruning["partitions_total"] = report.partitions_total
    pruning["partitions_pruned"] = report.partitions_pruned
    pruning["rows_scanned"] = report.rows_scanned

    # -- dictionary-encoded string predicates (no pruning possible) ----------
    dictionary = {}
    legacy_seconds, new_seconds = time_pair(
        legacy, partitioned.execute, dictionary_query, repeats
    )
    dictionary["per_row_seconds"] = legacy_seconds
    dictionary["dictionary_seconds"] = new_seconds
    dictionary["speedup"] = legacy_seconds / max(new_seconds, 1e-12)

    # -- combined headline: pruning + dictionary codes ----------------------
    combined = {}
    legacy_seconds, new_seconds = time_pair(
        legacy, partitioned.execute, combined_query, repeats
    )
    combined["legacy_seconds"] = legacy_seconds
    combined["partitioned_seconds"] = new_seconds
    combined["speedup"] = legacy_seconds / max(new_seconds, 1e-12)
    report = partitioned.last_scan_report
    combined["partitions_total"] = report.partitions_total
    combined["partitions_pruned"] = report.partitions_pruned
    combined["rows_scanned"] = report.rows_scanned
    combined["rows_total"] = report.rows_total

    # -- full scan: nothing prunes, only the mask and run detection differ --
    full_scan = {}
    legacy_seconds, new_seconds = time_pair(
        legacy, partitioned.execute, full_scan_query, repeats
    )
    full_scan["unpartitioned_seconds"] = legacy_seconds
    full_scan["partitioned_seconds"] = new_seconds
    report = partitioned.last_scan_report
    full_scan["partitions_total"] = report.partitions_total
    full_scan["partitions_pruned"] = report.partitions_pruned
    full_scan["rows_scanned"] = report.rows_scanned

    return {
        "benchmark": "scan",
        "description": (
            "Partitioned scan subsystem (zone-map pruning, dictionary-encoded "
            "string predicates, morsel scan driver) against the legacy "
            "whole-table scan with per-row string comparisons, plus a "
            "full-scan level where nothing prunes.  All "
            "paths are asserted to produce identical answers before timings "
            "are reported."
        ),
        "workload": {
            "num_rows": num_rows,
            "num_weeks": num_weeks,
            "num_regions": num_regions,
            "partition_rows": table_partitions(sales).partition_rows,
            "repeats": repeats,
            "week_cut": week_cut,
        },
        "zone_map_pruning": pruning,
        "dictionary_predicates": dictionary,
        "combined": combined,
        "full_scan": full_scan,
    }


def test_scan_smoke():
    """Pytest entry: partitioned scan must not be slower than legacy."""
    payload = run_benchmark(num_rows=20_000, num_weeks=60, num_regions=10, repeats=3)
    assert payload["combined"]["speedup"] > 1.0
    assert payload["dictionary_predicates"]["speedup"] > 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller workload; exit non-zero if the partitioned scan is slower",
    )
    parser.add_argument("--rows", type=int, default=400_000)
    parser.add_argument("--weeks", type=int, default=120)
    parser.add_argument("--regions", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    if args.smoke:
        payload = run_benchmark(num_rows=20_000, num_weeks=60, num_regions=10, repeats=3)
        print(json.dumps(payload, indent=2))
        failures = []
        if payload["combined"]["speedup"] <= 1.0:
            failures.append("combined slower than the legacy scan")
        if payload["dictionary_predicates"]["speedup"] <= 1.0:
            failures.append("dictionary predicates slower than per-row loops")
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(
            "smoke OK: partitioned scan faster than the legacy path; "
            "full scan identical to it"
        )
        return 0

    payload = run_benchmark(
        num_rows=args.rows,
        num_weeks=args.weeks,
        num_regions=args.regions,
        repeats=args.repeats,
    )
    text = json.dumps(payload, indent=2) + "\n"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "scan.json").write_text(text)
    (REPO_ROOT / "BENCH_scan.json").write_text(text)
    print(text)
    print(f"wrote {RESULTS_DIR / 'scan.json'} and {REPO_ROOT / 'BENCH_scan.json'}")
    headline = payload["combined"]["speedup"]
    if headline < 3.0:
        print(f"WARNING: headline speedup {headline:.2f}x is below the 3x acceptance bar")
        return 1
    print(f"headline: {headline:.1f}x (pruning + dictionary vs legacy scan)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
