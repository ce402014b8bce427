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

Every estimator works on arrays with one entry per output group, so an
answer's cells are formed in a few array operations; the per-group
reductions (``mean``, ``std``, ``min``, ``max``) are the same NumPy calls over
the same values a per-cell evaluation would make.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class Estimate:
    """Point estimates together with their standard errors, one per group."""

    value: np.ndarray
    error: np.ndarray


def freq_estimate(selected_rows: np.ndarray, scanned_rows: int) -> Estimate:
    """Estimate each group's selectivity (fraction of tuples in the group)."""
    selected_rows = np.asarray(selected_rows)
    if scanned_rows <= 0:
        return Estimate(
            value=np.zeros(selected_rows.shape), error=np.ones(selected_rows.shape)
        )
    p = selected_rows / scanned_rows
    # Clamp the proportion used for the error away from 0 and 1 so that rare
    # (or universal) predicates still carry non-zero uncertainty.
    p_err = np.minimum(
        np.maximum(p, 1.0 / (scanned_rows + 1)), 1.0 - 1.0 / (scanned_rows + 1)
    )
    error = np.sqrt(p_err * (1.0 - p_err) / scanned_rows)
    return Estimate(value=p, error=error)


def count_estimate(
    selected_rows: np.ndarray, scanned_rows: int, population_size: int
) -> Estimate:
    """Estimate each group's COUNT(*) over the population from sample counts."""
    freq = freq_estimate(selected_rows, scanned_rows)
    return Estimate(value=freq.value * population_size, error=freq.error * population_size)


def avg_estimate(
    segments: Sequence[np.ndarray], fallback_std: float | None = None
) -> Estimate:
    """Estimate each group's AVG(A) from its selected sample values.

    Parameters
    ----------
    segments:
        Per group, the measure values of its selected sample rows.
    fallback_std:
        Standard deviation to assume when fewer than two rows are selected
        (typically the standard deviation over the whole scanned sample).
    """
    k = np.array([len(segment) for segment in segments], dtype=np.int64)
    mean, std = np.zeros(len(k)), np.zeros(len(k))
    for group, segment in enumerate(segments):
        # Never reduce an empty segment (NumPy warns and answers NaN), nor
        # take the sample deviation of one row.
        if len(segment):
            mean[group] = segment.mean()
        if len(segment) > 1:
            std[group] = segment.std(ddof=1)
    if fallback_std:
        # Identical values: assume the smaller of the fallback spread and
        # the mean's magnitude rather than no uncertainty at all.
        floor = np.where(mean != 0.0, np.minimum(fallback_std, np.abs(mean)), fallback_std)
        std = np.where(std == 0.0, floor, std)
    # Under two rows there is no sample deviation: the fallback stands in
    # (without one, 1.0 for no row and the mean's magnitude for one).
    few = np.where(k == 0, 1.0, np.abs(mean)) if fallback_std is None else fallback_std
    error = np.where(k > 1, std / np.sqrt(np.maximum(k, 1)), np.maximum(few, 1e-12))
    return Estimate(value=mean, error=error)


def sum_estimate(avg: Estimate, count: Estimate) -> Estimate:
    """Estimate each group's SUM(A) = AVG(A) x COUNT(*) with propagated error.

    First-order error propagation for a product of two (approximately
    independent) estimators: ``var(XY) ~= Y^2 var(X) + X^2 var(Y)``.
    ``np.float_power`` squares through the C ``pow`` -- the same rounding as
    Python's ``x ** 2``, where ``x * x`` differs in the last bit now and then.
    """
    value = avg.value * count.value
    variance = np.float_power(count.value * avg.error, 2) + np.float_power(
        avg.value * count.error, 2
    )
    return Estimate(value=value, error=np.sqrt(np.maximum(variance, 0.0)))


def extreme_estimate(segments: Sequence[np.ndarray], largest: bool) -> Estimate:
    """Each group's MIN(A) (or MAX(A) when ``largest``) with a spread error.

    Sample-based engines cannot bound MIN/MAX errors (Section 2.5); the value
    is reported with a conservative error of the selected rows' standard
    deviation (its magnitude for one row, 0.0 for none).
    """
    value = np.zeros(len(segments))
    error = np.zeros(len(segments))
    for group, segment in enumerate(segments):
        if len(segment):
            value[group] = segment.max() if largest else segment.min()
            error[group] = segment.std(ddof=0) if len(segment) > 1 else abs(value[group])
    return Estimate(value=value, error=error)


@functools.lru_cache(maxsize=128)
def confidence_multiplier(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    ``confidence_multiplier(0.95)`` is about 1.96: a standard normal falls in
    ``(-1.96, 1.96)`` with probability 0.95.  This is the ``alpha_delta``
    multiplier of Section 3.4.  Memoised: model validation asks for the same
    one or two confidence levels once per answer cell.  ``ndtri`` is the
    function ``scipy.stats.norm.ppf`` evaluates, without importing
    ``scipy.stats`` (~0.4 s on every server start).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return float(ndtri(0.5 + confidence / 2.0))
