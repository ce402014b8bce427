"""Data types exchanged between the AQP engines and Verdict.

An :class:`AQPAnswer` is the engine's (approximate) result for one query: one
:class:`AQPRow` per output group, each carrying an :class:`AggregateEstimate`
per aggregate in the select list.  Estimates expose both the user-facing value
and error and the *internal* AVG / FREQ components Verdict uses for inference
(Section 2.3: ``AVG(Ak) = AVG(Ak)``, ``COUNT(*) = FREQ(*) x cardinality``,
``SUM(Ak) = AVG(Ak) x COUNT(*)``).

Errors are one standard deviation of the estimator ("expected error" beta in
the paper: beta^2 is the expectation of the squared deviation from the exact
answer).  Error *bounds* at a confidence level are obtained by multiplying by
the normal-quantile confidence multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.sqlparser import ast

Value = Union[int, float, str]


def relative_error_bound(value: float, error: float, multiplier: float) -> float:
    """Error bound relative to the estimate's magnitude (as in Figure 4).

    Unbounded (``inf``) when the estimate is ~0 but its error is not: an
    estimate of zero with any uncertainty says nothing about the relative
    error.
    """
    denominator = abs(value)
    if denominator < 1e-12:
        return float("inf") if error > 0 else 0.0
    return multiplier * error / denominator


def mean_relative_error_bound(rows: Iterable, multiplier: float) -> float:
    """Average relative error bound across all cells (Figure 4's metric).

    One unbounded cell makes the answer unbounded (``inf``); an answer
    without cells is 0.0.  ``rows`` carry ``estimates`` whose cells have a
    ``value`` and an ``error`` (raw and improved answers alike).
    """
    bounds = [
        relative_error_bound(estimate.value, estimate.error, multiplier)
        for row in rows
        for estimate in row.estimates.values()
    ]
    if not bounds:
        return 0.0
    return sum(bounds) / len(bounds)


@dataclass(frozen=True)
class InternalEstimates:
    """Verdict's internal aggregates for one (group, aggregate) cell.

    ``avg_value`` / ``avg_error`` are ``None`` for COUNT(*) / FREQ(*) cells,
    which involve no measure attribute.
    """

    freq_value: float
    freq_error: float
    avg_value: float | None = None
    avg_error: float | None = None
    selected_rows: int = 0
    scanned_rows: int = 0
    population_size: int = 0


@dataclass(frozen=True)
class AggregateEstimate:
    """User-facing estimate for one aggregate of one output row."""

    name: str
    function: ast.AggregateFunction
    value: float
    error: float
    internal: InternalEstimates

    def error_bound(self, multiplier: float) -> float:
        """Error bound at the confidence level given by ``multiplier``."""
        return multiplier * self.error

    def relative_error_bound(self, multiplier: float) -> float:
        """Error bound relative to the estimate's magnitude (as in Figure 4)."""
        return relative_error_bound(self.value, self.error, multiplier)


@dataclass(frozen=True)
class AQPRow:
    """One output row of an approximate answer."""

    group_values: tuple[Value, ...]
    estimates: dict[str, AggregateEstimate]

    def estimate(self, name: str) -> AggregateEstimate:
        return self.estimates[name]


@dataclass
class AQPAnswer:
    """A complete approximate answer, as produced after some amount of work.

    Online aggregation produces a sequence of these (one per processed batch),
    each strictly more accurate and more expensive than the previous one.
    """

    query: ast.Query
    group_columns: tuple[str, ...]
    aggregate_names: tuple[str, ...]
    rows: list[AQPRow]
    rows_scanned: int
    sample_size: int
    population_size: int
    elapsed_seconds: float
    batches_processed: int = 0

    def group_rows(self) -> list[tuple[Value, ...]]:
        """Group value tuples in row order (input to snippet decomposition)."""
        return [row.group_values for row in self.rows]

    def by_group(self) -> dict[tuple[Value, ...], AQPRow]:
        return {row.group_values: row for row in self.rows}

    def scalar_estimate(self) -> AggregateEstimate:
        """The estimate of a one-row, one-aggregate answer."""
        if len(self.rows) != 1 or len(self.aggregate_names) != 1:
            raise ValueError(
                "scalar_estimate() requires exactly one row and one aggregate"
            )
        return self.rows[0].estimates[self.aggregate_names[0]]

    def mean_relative_error_bound(self, multiplier: float) -> float:
        """Average relative error bound across all cells (Figure 4's metric)."""
        return mean_relative_error_bound(self.rows, multiplier)
