"""Shared sample-evaluation logic for the AQP engines.

Both the online-aggregation engine and the time-bound engine do the same
thing once they have decided how many sample rows to scan: evaluate the query
predicate and group-by over the scanned (and dimension-joined) sample prefix,
then form CLT estimates for every (group, aggregate) cell.  This module holds
that shared logic.

It is the exact executor's evaluation (:mod:`repro.db.executor`) with
estimates in place of exact aggregates: the same partitioned scan
(:mod:`repro.db.scan`; sample prefixes are zero-copy slice views of the full
sample that share its categorical codes and dictionaries, and selective
predicates skip partitions by zone map) and the same factorized group-by
kernel (:mod:`repro.db.groupby`; a query without GROUP BY is one segment
keyed ``()``).  Each measure expression is evaluated once per answer and
gathered into segment order once, and every aggregate's estimates are formed
for all groups at a time by the array estimators of
:mod:`repro.aqp.estimators`.
"""

from __future__ import annotations

import numpy as np

from repro.aqp.estimators import (
    Estimate,
    avg_estimate,
    count_estimate,
    extreme_estimate,
    freq_estimate,
    sum_estimate,
)
from repro.aqp.types import AggregateEstimate, AQPAnswer, AQPRow, InternalEstimates
from repro.db.expressions import evaluate_expression
from repro.db.groupby import GroupedSelection, factorize
from repro.db.having import compile_row_predicate
from repro.db.scan import ScanCounters, scan_selected
from repro.db.table import Table
from repro.errors import ExpressionError
from repro.sqlparser import ast


def _aggregate_cells(
    item: ast.SelectItem,
    scanned_table: Table,
    grouped: GroupedSelection,
    freq: Estimate,
    count: Estimate,
    scanned_rows: int,
    population_size: int,
) -> list[AggregateEstimate]:
    """One aggregate's estimate cell for every group, in group order.

    The measure expression is evaluated once over the whole scanned prefix
    (its spread is the fallback deviation of groups with under two rows)
    and gathered into group-segment order once.  ``*`` aggregates have no
    AVG component.
    """
    aggregate = item.expression
    function = aggregate.function
    avg: Estimate | None = None
    segments: list[np.ndarray] | None = None
    if not aggregate.is_star:
        values = np.asarray(
            evaluate_expression(aggregate.argument, scanned_table), dtype=np.float64
        )
        fallback_std = float(values.std(ddof=0)) if len(values) else 1.0
        segments = grouped.segments(grouped.take(values))
        avg = avg_estimate(segments, fallback_std=fallback_std or 1.0)

    if function is ast.AggregateFunction.FREQ:
        estimate = freq
    elif function is ast.AggregateFunction.COUNT:
        estimate = count
    elif function in (ast.AggregateFunction.MIN, ast.AggregateFunction.MAX):
        if segments is None:
            zeros = np.zeros(grouped.num_groups)
            estimate = Estimate(value=zeros, error=zeros)
        else:
            estimate = extreme_estimate(
                segments, largest=function is ast.AggregateFunction.MAX
            )
    elif avg is None:
        raise ExpressionError(f"aggregate {function} requires an argument")
    elif function is ast.AggregateFunction.AVG:
        estimate = avg
    else:
        estimate = sum_estimate(avg, count)

    # Cells hold plain floats: one ``tolist`` per array, not a NumPy
    # scalar per cell.
    no_avg = [None] * grouped.num_groups
    return [
        AggregateEstimate(
            name=item.output_name,
            function=function,
            value=value,
            error=error,
            internal=InternalEstimates(
                freq_value=freq_value,
                freq_error=freq_error,
                avg_value=avg_value,
                avg_error=avg_error,
                selected_rows=selected_rows,
                scanned_rows=scanned_rows,
                population_size=population_size,
            ),
        )
        for value, error, freq_value, freq_error, avg_value, avg_error, selected_rows in zip(
            estimate.value.tolist(),
            estimate.error.tolist(),
            freq.value.tolist(),
            freq.error.tolist(),
            no_avg if avg is None else avg.value.tolist(),
            no_avg if avg is None else avg.error.tolist(),
            grouped.counts.tolist(),
        )
    ]


def estimate_answer(
    query: ast.Query,
    scanned_table: Table,
    scanned_rows: int,
    sample_size: int,
    population_size: int,
    elapsed_seconds: float,
    batches_processed: int = 0,
    counters: ScanCounters | None = None,
) -> AQPAnswer:
    """Build an :class:`AQPAnswer` from an already-joined sample prefix.

    Parameters
    ----------
    query:
        The query being answered.
    scanned_table:
        The sample prefix after applying the query's dimension joins.
    scanned_rows:
        Number of sample rows scanned (denominator of selectivity estimates).
    sample_size:
        Total size of the offline sample (for reporting).
    population_size:
        Cardinality of the original fact table (scales COUNT/SUM).
    elapsed_seconds:
        Cumulative model time charged so far for this query.
    batches_processed:
        How many online-aggregation batches the prefix covers.
    """
    aggregate_items = [item for item in query.select if item.is_aggregate]
    aggregate_names = tuple(item.output_name for item in aggregate_items)
    group_columns = tuple(column.name for column in query.group_by)

    # Partitioned, pruned scan over the (slice-view) prefix; the merge
    # order of the scan driver keeps the selection identical to a
    # whole-prefix evaluation.
    selected, _ = scan_selected(scanned_table, query.where, counters=counters)
    grouped = factorize(scanned_table, None, group_columns, selected_indices=selected)
    rows: list[AQPRow] = []
    if grouped is not None:
        freq = freq_estimate(grouped.counts, scanned_rows)
        count = count_estimate(grouped.counts, scanned_rows, population_size)
        columns = {
            item.output_name: _aggregate_cells(
                item, scanned_table, grouped, freq, count, scanned_rows, population_size
            )
            for item in aggregate_items
        }
        rows = [
            AQPRow(
                group_values=key,
                estimates={name: cells[group] for name, cells in columns.items()},
            )
            for group, key in enumerate(grouped.keys)
        ]

    if query.having is not None:
        matches = compile_row_predicate(query.having, query)
        rows = [
            row
            for row in rows
            if matches(
                row.group_values,
                {name: est.value for name, est in row.estimates.items()},
            )
        ]

    return AQPAnswer(
        query=query,
        group_columns=group_columns,
        aggregate_names=aggregate_names,
        rows=rows,
        rows_scanned=scanned_rows,
        sample_size=sample_size,
        population_size=population_size,
        elapsed_seconds=elapsed_seconds,
        batches_processed=batches_processed,
    )
