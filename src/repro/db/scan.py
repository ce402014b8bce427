"""Morsel-driven partitioned scans with zone-map pruning.

This is the scan driver sitting between the predicate evaluator and the
execution engines.  Given a table and a predicate it:

1. consults the per-partition zone maps (:mod:`repro.db.partition`) to decide
   which partitions *may* contain matching rows -- selective predicates over
   clustered data skip most partitions without touching their arrays;
2. coalesces the surviving partitions into *morsels* -- runs of adjacent
   survivors, at most :data:`MORSEL_ROWS` rows each -- and evaluates the
   predicate once per morsel over a zero-copy row slice, on the calling
   thread (one thread per query: concurrency comes from concurrent queries);
3. concatenates the per-morsel selected row indices **in row order**, so the
   selection is byte-identical to evaluating the predicate over the whole
   table in one pass.

Partitions are the pruning granule and the unit every :class:`ScanReport`
counts; morsels are only the evaluation granule.  Pruning is conservative: a
partition is skipped only when its zone map *proves* no row can match.
``NOT`` nodes and comparisons over derived expressions never prune.  Every
scan is accounted in (thread-safe) scan counters exposed through
``repro.serve.metrics`` and the experiment reports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.deadline import current_cancel, current_deadline
from repro.db.expressions import _flip, distinct_match_mask, evaluate_predicate
from repro.obs.trace import span as obs_span
from repro.db.partition import DEFAULT_PARTITION_ROWS, TablePartitions, table_partitions
from repro.db.table import Table
from repro.sqlparser import ast

# --------------------------------------------------------------------------- #
# Scan accounting
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScanReport:
    """Partition accounting of one scan."""

    partitions_total: int
    partitions_scanned: int
    partitions_pruned: int
    rows_total: int
    rows_scanned: int


class ScanCounters:
    """Thread-safe cumulative partition/pruning counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.scans = 0
        self.partitions_total = 0
        self.partitions_scanned = 0
        self.partitions_pruned = 0
        self.rows_total = 0
        self.rows_scanned = 0

    def record(self, report: ScanReport) -> None:
        with self._lock:
            self.scans += 1
            self.partitions_total += report.partitions_total
            self.partitions_scanned += report.partitions_scanned
            self.partitions_pruned += report.partitions_pruned
            self.rows_total += report.rows_total
            self.rows_scanned += report.rows_scanned

    def snapshot(self) -> dict:
        with self._lock:
            scanned = self.partitions_scanned
            total = self.partitions_total
            return {
                "scans": self.scans,
                "partitions_total": total,
                "partitions_scanned": scanned,
                "partitions_pruned": self.partitions_pruned,
                "rows_total": self.rows_total,
                "rows_scanned": self.rows_scanned,
                "prune_fraction": (self.partitions_pruned / total) if total else 0.0,
            }

    def reset(self) -> None:
        with self._lock:
            self.scans = 0
            self.partitions_total = 0
            self.partitions_scanned = 0
            self.partitions_pruned = 0
            self.rows_total = 0
            self.rows_scanned = 0


# --------------------------------------------------------------------------- #
# Zone-map pruning
# --------------------------------------------------------------------------- #


def _leaf_maybe_vec(
    leaf: ast.Predicate, table: Table, partitions: TablePartitions
) -> np.ndarray:
    """Per-partition may-match of one predicate leaf, vectorized over zones.

    NaN rows never satisfy ordered comparisons or ``=`` but always satisfy
    ``!=`` (NumPy semantics, matching the evaluator); all-NaN partitions
    carry ``nan`` bounds, so every ordered comparison against them is False
    and they prune out automatically.
    """
    count = partitions.num_partitions
    maybe_all = np.ones(count, dtype=bool)

    if isinstance(leaf, ast.Comparison):
        left, op, right = leaf.left, leaf.op, leaf.right
        if isinstance(left, ast.Literal) and not isinstance(right, ast.Literal):
            left, right = right, left
            op = _flip(op)
        if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal)):
            return maybe_all
        name, literal = left.name, right.value
        if _is_categorical(partitions, name):
            return _categorical_maybe_vec(
                table, name, ast.Comparison(left=left, op=op, right=right), partitions
            )
        stats = partitions.numeric_stats(name)
        if stats is None or isinstance(literal, str):
            # Unknown column or string literal vs numeric column: the
            # evaluator decides (nothing equals it; ordering is an error).
            return maybe_all
        lows, highs, has_nan = stats
        value = float(literal)
        if op is ast.ComparisonOp.EQ:
            return (lows <= value) & (highs >= value)
        if op is ast.ComparisonOp.NE:
            # nan != value is True, so all-NaN partitions stay in ([nan] bounds).
            return has_nan | (lows != value) | (highs != value)
        if op is ast.ComparisonOp.LT:
            return lows < value
        if op is ast.ComparisonOp.LE:
            return lows <= value
        if op is ast.ComparisonOp.GT:
            return highs > value
        if op is ast.ComparisonOp.GE:
            return highs >= value
        return maybe_all

    if isinstance(leaf, ast.InPredicate):
        name = leaf.column.name
        if _is_categorical(partitions, name):
            return _categorical_maybe_vec(table, name, leaf, partitions)
        stats = partitions.numeric_stats(name)
        if stats is None:
            return maybe_all
        lows, highs, has_nan = stats
        numeric_allowed = [float(v) for v in leaf.values if isinstance(v, (int, float))]
        if leaf.negated:
            # NaN rows satisfy NOT IN; a partition is excluded only when it
            # is constant, NaN-free, and that constant is in the list.
            constant = (lows == highs) & ~has_nan
            hit = np.zeros(count, dtype=bool)
            for value in numeric_allowed:
                hit |= constant & (lows == value)
            return ~hit
        hit = np.zeros(count, dtype=bool)
        for value in numeric_allowed:
            hit |= (lows <= value) & (value <= highs)
        return hit

    if isinstance(leaf, ast.BetweenPredicate):
        name = leaf.column.name
        if _is_categorical(partitions, name):
            return _categorical_maybe_vec(table, name, leaf, partitions)
        stats = partitions.numeric_stats(name)
        if stats is None or isinstance(leaf.low, str) or isinstance(leaf.high, str):
            return maybe_all
        lows, highs, _ = stats
        return (highs >= float(leaf.low)) & (lows <= float(leaf.high))

    if isinstance(leaf, ast.LikePredicate):
        name = leaf.column.name
        if _is_categorical(partitions, name):
            return _categorical_maybe_vec(table, name, leaf, partitions)
        return maybe_all

    return maybe_all


def _is_categorical(partitions: TablePartitions, name: str) -> bool:
    return bool(partitions.zone_maps) and name in partitions.zone_maps[0].categorical


def _categorical_maybe_vec(
    table: Table, name: str, leaf: ast.Predicate, partitions: TablePartitions
) -> np.ndarray:
    """A categorical partition may match iff it holds any matching code.

    The per-value match mask is memoised per dictionary and leaf, so checking
    P partitions costs one pass over the matching codes plus P set probes.
    """
    match = distinct_match_mask(table.dictionary(name), leaf)
    matching = frozenset(np.flatnonzero(match).tolist())
    return np.asarray(
        [
            not matching.isdisjoint(zone_map.categorical[name])
            for zone_map in partitions.zone_maps
        ],
        dtype=bool,
    )


def partition_maybe_mask(
    predicate: ast.Predicate | None, table: Table, partitions: TablePartitions
) -> np.ndarray:
    """Per-partition boolean array: True where the partition must be scanned.

    Conservative: a partition is marked False only when its zone map proves
    no row can match.  ``AND`` intersects children, ``OR`` unions them, and
    ``NOT`` never prunes (zone maps only bound the positive side, so the
    complement can never be proven empty).
    """
    if predicate is None:
        return np.ones(partitions.num_partitions, dtype=bool)
    if isinstance(predicate, ast.And):
        maybe = np.ones(partitions.num_partitions, dtype=bool)
        for child in predicate.predicates:
            maybe &= partition_maybe_mask(child, table, partitions)
        return maybe
    if isinstance(predicate, ast.Or):
        maybe = np.zeros(partitions.num_partitions, dtype=bool)
        for child in predicate.predicates:
            maybe |= partition_maybe_mask(child, table, partitions)
        return maybe
    if isinstance(predicate, ast.Not):
        return np.ones(partitions.num_partitions, dtype=bool)
    return _leaf_maybe_vec(predicate, table, partitions)


# --------------------------------------------------------------------------- #
# Morsel-driven scan
# --------------------------------------------------------------------------- #

#: Most rows one predicate evaluation covers (64 default partitions).  Below
#: this, per-call dispatch (slice view, predicate tree walk, ``flatnonzero``)
#: outweighs the compare itself: a 1M-row scan measured 10.1 / 9.5 / 8.2 /
#: 7.8 / 7.8 ms at 1 / 4 / 16 / 64 / 256 partitions per evaluation.  Above
#: it nothing is gained, and the deadline / cancel token -- polled once per
#: morsel -- would go unobserved for longer than the few ms this many rows
#: take.
MORSEL_ROWS = 64 * DEFAULT_PARTITION_ROWS


def estimate_scan_rows(table: Table, predicate: ast.Predicate | None) -> int:
    """Zone-map-only estimate of the rows a pruned scan must touch.

    Used by the serving planner's cost model: the exact route's cost is a
    scan of the *surviving* partitions, not of the whole table.
    """
    partitions = table_partitions(table)
    if predicate is None:
        return partitions.num_rows
    maybe = partition_maybe_mask(predicate, table, partitions)
    return int(partitions.sizes[maybe].sum())


def _surviving_runs(
    partitions: TablePartitions, maybe: np.ndarray
) -> list[tuple[int, int]]:
    """``[start, end)`` row ranges of the runs of adjacent surviving partitions.

    The run edges are the positions where ``maybe`` (non-empty) flips, so
    finding them is one vectorized compare however many partitions there are.
    """
    edges = (np.flatnonzero(maybe[1:] != maybe[:-1]) + 1).tolist()
    if maybe[0]:
        edges.insert(0, 0)
    if maybe[-1]:
        edges.append(len(maybe))
    bounds = partitions.bounds
    return [
        (bounds[first][0], bounds[last - 1][1])
        for first, last in zip(edges[0::2], edges[1::2])
    ]


def scan_selected(
    table: Table,
    predicate: ast.Predicate | None,
    counters: ScanCounters | None = None,
) -> tuple[np.ndarray, ScanReport]:
    """Selected row indices of ``predicate`` over ``table``, zone-map pruned.

    Returns the ascending row indices satisfying the predicate -- exactly
    ``np.flatnonzero(evaluate_predicate(predicate, table))``, computed by
    evaluating only the partitions whose zone maps may match.

    The scan is accounted into ``counters``, the calling component's (an
    executor's, a service's).  Under an active request trace each scan
    also contributes a ``scan`` span carrying the report.
    """
    with obs_span("scan", table=table.name) as scan_span:
        selected, report = _scan_selected(table, predicate)
        if counters is not None:
            counters.record(report)
        if scan_span is not None:
            scan_span.set(
                partitions_total=report.partitions_total,
                partitions_scanned=report.partitions_scanned,
                partitions_pruned=report.partitions_pruned,
                rows_total=report.rows_total,
                rows_scanned=report.rows_scanned,
            )
        return selected, report


def _scan_selected(
    table: Table,
    predicate: ast.Predicate | None,
) -> tuple[np.ndarray, ScanReport]:
    partitions = table_partitions(table)
    if len(table) == 0:
        return np.zeros(0, dtype=np.int64), ScanReport(0, 0, 0, 0, 0)
    if predicate is None:
        return np.arange(len(table), dtype=np.int64), ScanReport(
            partitions.num_partitions,
            partitions.num_partitions,
            0,
            partitions.num_rows,
            partitions.num_rows,
        )

    maybe = partition_maybe_mask(predicate, table, partitions)
    runs = _surviving_runs(partitions, maybe)
    partitions_scanned = int(np.count_nonzero(maybe))
    rows_scanned = sum(end - start for start, end in runs)

    # A run is cut every MORSEL_ROWS rows.  Cooperative cancellation: the
    # exact scan is all-or-nothing, so an expired request deadline or an
    # armed cancel token aborts it (DeadlineExceeded / QueryCancelled)
    # rather than returning a partial result; both are polled once per
    # morsel.
    deadline = current_deadline()
    cancel = current_cancel()
    parts: list[np.ndarray] = []
    for run_start, run_end in runs:
        for start in range(run_start, run_end, MORSEL_ROWS):
            if cancel is not None:
                cancel.check("partitioned scan")
            if deadline is not None:
                deadline.check("partitioned scan")
            end = min(start + MORSEL_ROWS, run_end)
            local = np.flatnonzero(
                evaluate_predicate(predicate, table.slice_rows(start, end))
            )
            if start:
                local += start
            parts.append(local)
    if len(parts) == 1:
        selected = parts[0]
    elif parts:
        selected = np.concatenate(parts)
    else:
        selected = np.zeros(0, dtype=np.int64)
    return selected, ScanReport(
        partitions_total=partitions.num_partitions,
        partitions_scanned=partitions_scanned,
        partitions_pruned=partitions.num_partitions - partitions_scanned,
        rows_total=partitions.num_rows,
        rows_scanned=rows_scanned,
    )
