"""Squared-exponential inter-tuple covariance and its analytic integrals.

Section 4.2 models the covariance between tuple-level function values with a
squared-exponential covariance function

    rho_g(t, t') = sigma_g^2 * prod_k exp( -(a_k - a'_k)^2 / l_{g,k}^2 )

so that the covariance between two snippet answers becomes a product of
per-attribute double integrals of ``exp(-(x - y)^2 / l^2)`` over the two
snippets' predicate ranges (Equation 10).  Appendix F.1 gives the closed form
of that double integral; this module implements it (in an equivalent
antiderivative form), together with the single integral needed when one range
is degenerate and the plain kernel value needed when both are.

All functions are vectorised over NumPy arrays so the covariance of an entire
synopsis can be assembled without Python-level loops over snippet pairs;
:func:`se_average_factors` evaluates the normalised factor of any number of
range pairs, of any number of attributes, in one pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_SQRT_PI = math.sqrt(math.pi)


def se_kernel(difference: np.ndarray | float, length_scale: float) -> np.ndarray | float:
    """The squared-exponential kernel ``exp(-(difference / l)^2)``.

    Note the paper's convention: the squared distance is divided by ``l^2``
    (no factor of 2), so ``length_scale`` here matches the paper's ``l_{g,k}``.
    """
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    diff = np.asarray(difference, dtype=np.float64)
    return np.exp(-np.square(diff / length_scale))


def _antiderivative_first(t: np.ndarray, length_scale: float) -> np.ndarray:
    """K1(t) = integral of exp(-u^2/l^2) du from 0 to t = (sqrt(pi)/2) l erf(t/l)."""
    return 0.5 * _SQRT_PI * length_scale * erf(t / length_scale)


def _antiderivative_second(t: np.ndarray, length_scale: float) -> np.ndarray:
    """G(t) with G''(t) = exp(-t^2/l^2).

    G(t) = (sqrt(pi)/2) l t erf(t/l) + (l^2/2) exp(-t^2/l^2).
    """
    t = np.asarray(t, dtype=np.float64)
    return (
        0.5 * _SQRT_PI * length_scale * t * erf(t / length_scale)
        + 0.5 * length_scale**2 * np.exp(-np.square(t / length_scale))
    )


def se_single_integral(
    x: np.ndarray | float,
    low: np.ndarray | float,
    high: np.ndarray | float,
    length_scale: float,
) -> np.ndarray | float:
    """``integral_{y=low}^{high} exp(-(x - y)^2 / l^2) dy``.

    Used when one of the two ranges collapses to a point (an equality
    predicate on a numeric attribute whose resolution is effectively zero).
    """
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    x = np.asarray(x, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    return _antiderivative_first(x - low, length_scale) - _antiderivative_first(
        x - high, length_scale
    )


def se_double_integral(
    low_1: np.ndarray | float,
    high_1: np.ndarray | float,
    low_2: np.ndarray | float,
    high_2: np.ndarray | float,
    length_scale: float,
) -> np.ndarray | float:
    """``integral_{x=low_1}^{high_1} integral_{y=low_2}^{high_2} exp(-(x-y)^2/l^2) dy dx``.

    Computed from the twice-integrated kernel ``G`` as
    ``G(b - c) - G(b - d) - G(a - c) + G(a - d)`` with ``[a, b] = [low_1,
    high_1]`` and ``[c, d] = [low_2, high_2]``; this is algebraically
    equivalent to the Appendix F.1 expression and numerically stable for both
    overlapping and far-apart ranges.

    All four bounds broadcast against each other, so passing column/row
    vectors yields the full pairwise matrix in one call.
    """
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    a = np.asarray(low_1, dtype=np.float64)
    b = np.asarray(high_1, dtype=np.float64)
    c = np.asarray(low_2, dtype=np.float64)
    d = np.asarray(high_2, dtype=np.float64)
    value = (
        _antiderivative_second(b - c, length_scale)
        - _antiderivative_second(b - d, length_scale)
        - _antiderivative_second(a - c, length_scale)
        + _antiderivative_second(a - d, length_scale)
    )
    # The integral of a positive integrand is non-negative; tiny negative
    # values can appear from cancellation when ranges are far apart.
    return np.maximum(value, 0.0)


def se_coefficients(length_scales) -> np.ndarray:
    """``(3, k)``: each length scale ``l`` with its ``(sqrt(pi)/2) l`` and
    ``l^2 / 2``, computed as the Python floats the one-pair formula
    multiplies by, so a batched evaluation repeats its bits."""
    scales = [float(scale) for scale in length_scales]
    return np.array(
        [
            scales,
            [0.5 * _SQRT_PI * scale for scale in scales],
            [0.5 * scale**2 for scale in scales],
        ],
        dtype=np.float64,
    ).reshape(3, len(scales))


def se_average_factors(
    low_1: np.ndarray,
    high_1: np.ndarray,
    low_2: np.ndarray,
    high_2: np.ndarray,
    coefficients: np.ndarray,
    with_grad: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The normalised double integral of many range pairs in one pass.

    Every argument is flat with one entry per pair; ``coefficients`` is
    :func:`se_coefficients` of each pair's length scale, so pairs of
    different attributes (different scales) share one ``erf`` and one
    ``exp`` call.  This is the one evaluator of the squared-exponential
    factor: the covariance kernel, the likelihood workspace and
    :func:`se_average_factor` all call it.

    Each entry is ``G(b - c) - G(b - d) - G(a - c) + G(a - d)`` (``G`` the
    twice-integrated kernel, see :func:`se_double_integral`), floored at
    zero against cancellation, divided by both widths and clipped to
    ``[0, 1]``; a pair with a zero width product takes the point kernel of
    the midpoints instead.  Every element goes through the same IEEE
    operations in the same order whatever the batch around it, so a factor
    has the same bits evaluated alone or with thousands of others.

    With ``with_grad`` it also returns ``d factor / d log l``: with
    ``u = t / l``, ``dG / dlog l = G + (l^2 / 2) exp(-u^2)``, so the
    derivative shares every ``erf`` / ``exp`` term with the value.  Where
    a clamp is active (the zero floor or the clip at one) the derivative is
    zero, the exact subgradient of the clamped factor.
    """
    length_scale, erf_coef, gauss_coef = coefficients
    # The calls below write into their own temporaries (``out=``): the same
    # element-wise operations as the one-pair formula, fewer allocations.
    t = np.empty((4, len(low_1)), dtype=np.float64)
    np.subtract(high_1, low_2, out=t[0])
    np.subtract(high_1, high_2, out=t[1])
    np.subtract(low_1, low_2, out=t[2])
    np.subtract(low_1, high_2, out=t[3])
    u = t / length_scale
    half_gaussian = np.square(u)
    np.negative(half_gaussian, out=half_gaussian)
    np.exp(half_gaussian, out=half_gaussian)
    np.multiply(gauss_coef, half_gaussian, out=half_gaussian)
    second = erf_coef * t
    second *= erf(u, out=u)
    second += half_gaussian
    raw = second[0] - second[1]
    raw -= second[2]
    raw += second[3]
    denominator = high_1 - low_1
    denominator *= high_2 - low_2
    degenerate = None
    if np.count_nonzero(denominator) < len(denominator):
        # Guard the division; these entries take the point kernel below.
        degenerate = np.flatnonzero(denominator <= 0.0)
        denominator[degenerate] = 1.0
    factor = np.maximum(raw, 0.0)
    factor /= denominator
    if degenerate is not None:
        difference = 0.5 * (low_1[degenerate] + high_1[degenerate]) - 0.5 * (
            low_2[degenerate] + high_2[degenerate]
        )
        squared = np.square(difference / length_scale[degenerate])
        point_kernel = np.exp(-squared)
        factor[degenerate] = point_kernel
    clipped = np.clip(factor, 0.0, 1.0)
    if not with_grad:
        return clipped
    grad = raw + (half_gaussian[0] - half_gaussian[1] - half_gaussian[2] + half_gaussian[3])
    grad = np.where(raw < 0.0, 0.0, grad) / denominator
    if degenerate is not None:
        # d/dlog l of exp(-(diff/l)^2) = 2 (diff/l)^2 exp(-(diff/l)^2).
        grad[degenerate] = 2.0 * squared * point_kernel
    return clipped, np.where(factor > 1.0, 0.0, grad)


def _one_scale(low_1, high_1, low_2, high_2, length_scale, with_grad):
    """:func:`se_average_factors` over broadcast arrays sharing one scale."""
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    a, b, c, d = np.broadcast_arrays(
        *(np.asarray(bound, dtype=np.float64) for bound in (low_1, high_1, low_2, high_2))
    )
    if np.any(b - a < 0) or np.any(d - c < 0):
        raise ValueError("ranges must have non-negative width")
    coefficients = np.repeat(se_coefficients([length_scale]), a.size, axis=1)
    result = se_average_factors(
        a.ravel(), b.ravel(), c.ravel(), d.ravel(), coefficients, with_grad
    )
    if with_grad:
        return tuple(np.asarray(part).reshape(a.shape) for part in result)
    return result.reshape(a.shape)


def se_average_factor(
    low_1: np.ndarray | float,
    high_1: np.ndarray | float,
    low_2: np.ndarray | float,
    high_2: np.ndarray | float,
    length_scale: float,
) -> np.ndarray:
    """The double integral normalised by both range widths.

    This is the per-attribute covariance factor between two *averages* over
    ranges ``[low_1, high_1]`` and ``[low_2, high_2]``; it lies in ``[0, 1]``
    and tends to ``exp(-(x_1 - x_2)^2 / l^2)`` as both ranges shrink to
    points.  The bounds broadcast against each other; the values are
    :func:`se_average_factors`'.
    """
    return _one_scale(low_1, high_1, low_2, high_2, length_scale, False)


def se_average_factor_with_grad(
    low_1: np.ndarray | float,
    high_1: np.ndarray | float,
    low_2: np.ndarray | float,
    high_2: np.ndarray | float,
    length_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(f, df/d log l)`` of :func:`se_average_factor` in one pass (see
    :func:`se_average_factors`)."""
    return _one_scale(low_1, high_1, low_2, high_2, length_scale, True)
