"""Brute-force answers and the accuracy score, computed off the clock.

The oracle knows nothing of the engine: it evaluates a
:class:`workloads.QuerySpec` against flat NumPy columns with one boolean mask
and one per-group reduce, and compares the program's cells against that.

* exact-route answers must match to ``EXACT_RTOL`` relative;
* approximate answers feed ``err_rel_p50`` / ``bound_rel_p50`` /
  ``bound_coverage`` (a cell is *covered* when the stated 95 % bound contains
  the exact value);
* any cell that is missing, not finite, or (on the exact route) off by more
  than the tolerance makes its operation a failure.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from workloads import FlatData, QuerySpec

EXACT_RTOL = 1e-9
#: Accuracy medians are floored here: below the oracle's own comparison
#: tolerance an error is indistinguishable from round-off, and an end-to-end
#: metric may never read 0 (exact answers would otherwise score 0.0).
ACCURACY_FLOOR = EXACT_RTOL

Cells = dict[tuple, list[float]]


def _mask(flat: FlatData, spec: QuerySpec) -> np.ndarray:
    mask = np.ones(flat.num_rows, dtype=bool)
    for column, op, value in spec.filters:
        if column in flat.categorical:
            codes, labels = flat.categorical[column]
            wanted = [labels.index(v) for v in ((value,) if op == "=" else value)]
            mask &= np.isin(codes, wanted)
        elif op == ">=":
            mask &= flat.numeric[column] >= value
        elif op == "<=":
            mask &= flat.numeric[column] <= value
        else:
            raise ValueError(f"oracle cannot filter {column} {op}")
    return mask


def evaluate(flat: FlatData, spec: QuerySpec) -> Cells:
    """Exact cells of ``spec``: ``{group tuple: [aggregate values...]}``."""
    selected = np.flatnonzero(_mask(flat, spec))
    if spec.group_by is None:
        groups, labels, size = np.zeros(len(selected), dtype=np.int64), ((),), 1
    else:
        codes, names = flat.categorical[spec.group_by]
        groups, labels, size = codes[selected], tuple((n,) for n in names), len(names)
    counts = np.bincount(groups, minlength=size)
    columns: list[np.ndarray] = []
    for function, column in spec.aggregates:
        if function == "COUNT":
            columns.append(counts.astype(np.float64))
            continue
        sums = np.bincount(groups, weights=flat.numeric[column][selected], minlength=size)
        columns.append(sums if function == "SUM" else sums / np.maximum(counts, 1))
    return {
        labels[g]: [float(column[g]) for column in columns]
        for g in range(size)
        if counts[g] or spec.group_by is None
    }


@dataclass
class Score:
    """Accumulated accuracy of one pass."""

    errors: list[float] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)
    covered: int = 0
    approximate_cells: int = 0
    exact_cells: int = 0

    def metrics(self) -> dict[str, float]:
        """The three accuracy metrics (exact-only passes score the floor)."""
        cells = self.approximate_cells
        if not cells:
            return {
                "err_rel_p50": ACCURACY_FLOOR,
                "bound_rel_p50": ACCURACY_FLOOR,
                "bound_coverage": 1.0,
            }
        return {
            "err_rel_p50": max(statistics.median(self.errors), ACCURACY_FLOOR),
            "bound_rel_p50": max(statistics.median(self.bounds), ACCURACY_FLOOR),
            "bound_coverage": self.covered / cells,
        }


def check_answer(
    score: Score,
    truth: Cells,
    rows: list[tuple[tuple, list[float], list[float]]],
    exact_route: bool,
) -> bool:
    """Score one answer; ``False`` when the operation must count as failed.

    ``rows`` are ``(group values, values, stated absolute 95 % bounds)`` in
    select-list order.  Groups the sample missed are not cells of the
    approximate answer and are not scored.
    """
    if not rows:
        return not truth
    ok = True
    for group, values, bounds in rows:
        expected = truth.get(tuple(group))
        if expected is None or len(expected) != len(values):
            ok = False
            continue
        for value, bound, exact in zip(values, bounds, expected):
            if not (math.isfinite(value) and math.isfinite(bound)):
                ok = False
                continue
            scale = max(abs(exact), 1e-300)
            error = abs(value - exact)
            if exact_route:
                score.exact_cells += 1
                ok = ok and error <= EXACT_RTOL * scale
                continue
            score.approximate_cells += 1
            score.errors.append(error / scale)
            score.bounds.append(bound / max(abs(value), 1e-300))
            score.covered += error <= bound
    if exact_route and len(rows) != len(truth):
        ok = False
    return ok


def served_rows(answer) -> list[tuple[tuple, list[float], list[float]]]:
    """Rows of an in-process ``ServedAnswer`` in :func:`check_answer` form."""
    return [
        (row.group_values, list(row.values.values()), list(row.errors.values()))
        for row in answer.rows
    ]


def state_rows(state: dict) -> list[tuple[tuple, list[float], list[float]]]:
    """Rows of an HTTP answer state in :func:`check_answer` form."""
    return [
        (tuple(row["group"]), list(row["values"].values()), list(row["errors"].values()))
        for row in state["rows"]
    ]
