"""CLT-based estimators and error estimates for uniform-sample AQP.

The baseline engine ("NoLearn") estimates errors and confidence intervals with
closed forms based on the central limit theorem, the most common approach in
online aggregation systems (Section 8.1).  Given a uniform sample of ``n``
rows from a population of ``N`` rows, with ``k`` sample rows satisfying the
query predicate:

* ``FREQ(*)``: the selectivity ``p = k / n``; its standard error is
  ``sqrt(p (1 - p) / n)``.
* ``COUNT(*)``: ``p * N`` with standard error ``N * se(p)``.
* ``AVG(A)``: the mean of ``A`` over the ``k`` selected sample rows; standard
  error ``s / sqrt(k)`` with ``s`` the sample standard deviation.
* ``SUM(A)``: ``AVG * COUNT``; standard error via first-order error
  propagation on the product.

Degenerate cases (no selected rows, a single selected row) fall back to
conservative errors so downstream inference never divides by zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """A point estimate together with its standard error."""

    value: float
    error: float


def freq_estimate(selected_rows: int, scanned_rows: int) -> Estimate:
    """Estimate the selectivity (fraction of tuples satisfying the predicate)."""
    if scanned_rows <= 0:
        return Estimate(value=0.0, error=1.0)
    p = selected_rows / scanned_rows
    # Clamp the proportion used for the error away from 0 and 1 so that rare
    # (or universal) predicates still carry non-zero uncertainty.
    p_err = min(max(p, 1.0 / (scanned_rows + 1)), 1.0 - 1.0 / (scanned_rows + 1))
    error = math.sqrt(p_err * (1.0 - p_err) / scanned_rows)
    return Estimate(value=p, error=error)


def count_estimate(selected_rows: int, scanned_rows: int, population_size: int) -> Estimate:
    """Estimate COUNT(*) over the population from sample counts."""
    freq = freq_estimate(selected_rows, scanned_rows)
    return Estimate(value=freq.value * population_size, error=freq.error * population_size)


def avg_estimate(values: np.ndarray, fallback_std: float | None = None) -> Estimate:
    """Estimate AVG(A) from the selected sample values.

    Parameters
    ----------
    values:
        Measure values of the selected sample rows.
    fallback_std:
        Standard deviation to assume when fewer than two rows are selected
        (typically the standard deviation over the whole scanned sample).
    """
    values = np.asarray(values, dtype=np.float64)
    k = len(values)
    if k == 0:
        std = fallback_std if fallback_std is not None else 1.0
        return Estimate(value=0.0, error=max(std, 1e-12))
    mean = float(values.mean())
    if k == 1:
        std = fallback_std if fallback_std is not None else abs(mean)
        return Estimate(value=mean, error=max(std, 1e-12))
    std = float(values.std(ddof=1))
    if std == 0.0 and fallback_std:
        std = min(fallback_std, abs(mean) if mean else fallback_std)
    error = std / math.sqrt(k)
    return Estimate(value=mean, error=max(error, 0.0))


def sum_estimate(avg: Estimate, count: Estimate) -> Estimate:
    """Estimate SUM(A) = AVG(A) x COUNT(*) with propagated error.

    First-order error propagation for a product of two (approximately
    independent) estimators: ``var(XY) ~= Y^2 var(X) + X^2 var(Y)``.
    """
    value = avg.value * count.value
    variance = (count.value * avg.error) ** 2 + (avg.value * count.error) ** 2
    return Estimate(value=value, error=math.sqrt(max(variance, 0.0)))


@functools.lru_cache(maxsize=128)
def confidence_multiplier(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    ``confidence_multiplier(0.95)`` is about 1.96: a standard normal falls in
    ``(-1.96, 1.96)`` with probability 0.95.  This is the ``alpha_delta``
    multiplier of Section 3.4.  Memoised: model validation asks for the same
    one or two confidence levels once per answer cell.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy.stats import norm

    return float(norm.ppf(0.5 + confidence / 2.0))
