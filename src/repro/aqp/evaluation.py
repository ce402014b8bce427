"""Shared sample-evaluation logic for the AQP engines.

Both the online-aggregation engine and the time-bound engine do the same
thing once they have decided how many sample rows to scan: evaluate the query
predicate and group-by over the scanned (and dimension-joined) sample prefix,
then form CLT estimates for every (group, aggregate) cell.  This module holds
that shared logic.

Grouping runs through the factorized kernel of :mod:`repro.db.groupby`: the
group partition is computed once, each measure array is gathered into
segment order once, and every cell's estimate is formed from its contiguous
slice.

Predicate evaluation over the scanned prefix runs through the partitioned
scan driver (:mod:`repro.db.scan`): sample prefixes are zero-copy slice
views of the full sample that share its categorical codes and dictionaries,
and selective predicates skip partitions by zone map exactly as the exact
executor does.
"""

from __future__ import annotations

import numpy as np

from repro.aqp.estimators import (
    Estimate,
    avg_estimate,
    count_estimate,
    freq_estimate,
    sum_estimate,
)
from repro.aqp.types import AggregateEstimate, AQPAnswer, AQPRow, InternalEstimates
from repro.db.expressions import evaluate_expression
from repro.db.groupby import factorize
from repro.db.having import compile_row_predicate
from repro.db.scan import ScanCounters, scan_selected
from repro.db.table import Table
from repro.sqlparser import ast


def _estimate_cell(
    aggregate: ast.Aggregate,
    name: str,
    selected: int,
    scanned_rows: int,
    population_size: int,
    group_values: np.ndarray | None,
    fallback_std: float,
) -> AggregateEstimate:
    """Form the estimate for one (group, aggregate) cell.

    ``group_values`` is the aggregate argument restricted to this group's
    selected rows (``None`` for ``*`` aggregates); :func:`estimate_answer`
    evaluates each measure expression once per answer and gathers it per
    group, instead of re-evaluating the expression per cell.
    """
    freq = freq_estimate(selected, scanned_rows)
    count = count_estimate(selected, scanned_rows, population_size)

    avg: Estimate | None = None
    if group_values is not None:
        avg = avg_estimate(group_values, fallback_std=fallback_std or 1.0)

    function = aggregate.function
    if function is ast.AggregateFunction.FREQ:
        value, error = freq.value, freq.error
    elif function is ast.AggregateFunction.COUNT:
        value, error = count.value, count.error
    elif function is ast.AggregateFunction.AVG:
        assert avg is not None
        value, error = avg.value, avg.error
    elif function is ast.AggregateFunction.SUM:
        assert avg is not None
        total = sum_estimate(avg, count)
        value, error = total.value, total.error
    elif function in (ast.AggregateFunction.MIN, ast.AggregateFunction.MAX):
        # Sample-based engines cannot bound MIN/MAX errors (Section 2.5); the
        # value is reported with a conservative error of the selected spread.
        if group_values is None or selected == 0:
            value, error = 0.0, 0.0
        else:
            value = float(
                group_values.min()
                if function is ast.AggregateFunction.MIN
                else group_values.max()
            )
            error = (
                float(group_values.std(ddof=0))
                if len(group_values) > 1
                else abs(value)
            )
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown aggregate function {function}")

    internal = InternalEstimates(
        freq_value=freq.value,
        freq_error=freq.error,
        avg_value=None if avg is None else avg.value,
        avg_error=None if avg is None else avg.error,
        selected_rows=selected,
        scanned_rows=scanned_rows,
        population_size=population_size,
    )
    return AggregateEstimate(
        name=name, function=function, value=value, error=error, internal=internal
    )


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

    # Evaluate every aggregate's measure expression once over the scanned
    # table; each group-by cell then just indexes into the shared array.
    measures: dict[str, tuple[np.ndarray | None, float]] = {}
    for item in aggregate_items:
        if item.expression.is_star:
            measures[item.output_name] = (None, 1.0)
        else:
            values = np.asarray(
                evaluate_expression(item.expression.argument, scanned_table),
                dtype=np.float64,
            )
            fallback_std = float(values.std(ddof=0)) if len(values) else 1.0
            measures[item.output_name] = (values, fallback_std)

    rows: list[AQPRow] = []

    def build_row(
        group_values: tuple,
        selected: int,
        slicer,
    ) -> AQPRow:
        estimates = {}
        for item in aggregate_items:
            measure_values, fallback_std = measures[item.output_name]
            estimates[item.output_name] = _estimate_cell(
                item.expression,
                item.output_name,
                selected=selected,
                scanned_rows=scanned_rows,
                population_size=population_size,
                group_values=None if measure_values is None else slicer(item.output_name),
                fallback_std=fallback_std,
            )
        return AQPRow(group_values=group_values, estimates=estimates)

    # Partitioned, pruned scan over the (slice-view) prefix; the merge
    # order of the scan driver keeps the selection identical to a
    # whole-prefix evaluation.
    selected, _ = scan_selected(scanned_table, query.where, counters=counters)
    if group_columns:
        grouped = factorize(
            scanned_table, None, group_columns, selected_indices=selected
        )
        if grouped is not None:
            # Gather each measure into group-segment order once per answer.
            taken = {
                name: None if values is None else grouped.take(values)
                for name, (values, _) in measures.items()
            }
            starts, ends = grouped.starts, grouped.ends
            for group, key in enumerate(grouped.keys):
                begin, end = starts[group], ends[group]
                rows.append(
                    build_row(
                        key,
                        int(grouped.counts[group]),
                        lambda name, begin=begin, end=end: taken[name][begin:end],
                    )
                )
    else:
        rows.append(
            build_row(
                (),
                len(selected),
                lambda name, selected=selected: measures[name][0][selected],
            )
        )

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
