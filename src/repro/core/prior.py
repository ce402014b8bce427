"""Analytic prior statistics of snippet answers (Appendix F.3).

Verdict computes two of its correlation parameters analytically rather than
by optimisation:

* the prior mean ``mu`` of the snippet-answer random variables: the
  arithmetic mean of past AVG answers, and the mean *density* (answer divided
  by region volume) of past FREQ answers;
* the signal variance ``sigma_g^2``: the empirical variance of past AVG
  answers, and of past FREQ densities.

Because this reproduction's covariance factors are normalised correlations in
``[0, 1]`` (see :mod:`repro.core.covariance`), the signal variance used by
inference is additionally *calibrated* so that the model-implied marginal
variances match the empirical variance of past observations:
``sigma^2 = var(observations) / mean(diagonal factor)``.  That calibration is
performed in :class:`repro.core.inference.GaussianInference`, which has the
factors at hand; this module supplies the raw empirical statistics and the
observation-space conversion helpers shared by inference and learning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.regions import AttributeDomains, Region
from repro.core.snippet import AggregateKind, Snippet


@dataclass(frozen=True)
class PriorEstimate:
    """Prior mean and (uncalibrated) variance in observation space."""

    mean: float
    variance: float
    count: int


def observation_scale(region: Region, domains: AttributeDomains) -> float:
    """What a FREQ answer over ``region`` is divided by in observation space:
    the region's volume fraction, floored at ``1e-12``."""
    return max(region.volume_fraction(domains), 1e-12)


def observation_value(snippet: Snippet, domains: AttributeDomains) -> float:
    """Map a snippet's raw answer into observation (inference) space.

    AVG answers are used as-is; FREQ answers are converted into densities by
    dividing by the region's volume fraction so that snippets with different
    predicate regions are directly comparable.
    """
    if snippet.key.kind is AggregateKind.FREQ:
        return snippet.raw_answer / observation_scale(snippet.region, domains)
    return snippet.raw_answer


def observation_error(snippet: Snippet, domains: AttributeDomains) -> float:
    """Map a snippet's raw error into observation space (same scaling)."""
    if snippet.key.kind is AggregateKind.FREQ:
        return snippet.raw_error / observation_scale(snippet.region, domains)
    return snippet.raw_error


def answer_from_observation(
    value: float, snippet: Snippet, domains: AttributeDomains
) -> float:
    """Inverse of :func:`observation_value` for a given snippet's region."""
    if snippet.key.kind is AggregateKind.FREQ:
        return value * observation_scale(snippet.region, domains)
    return value


def error_from_observation(
    error: float, snippet: Snippet, domains: AttributeDomains
) -> float:
    """Inverse of :func:`observation_error` for a given snippet's region."""
    if snippet.key.kind is AggregateKind.FREQ:
        return error * observation_scale(snippet.region, domains)
    return error


def estimate_prior(
    snippets: Sequence[Snippet], domains: AttributeDomains
) -> PriorEstimate:
    """Empirical prior mean / variance over past snippets, in observation space.

    With fewer than two snippets the variance falls back to a small positive
    value derived from the answers' magnitude, so downstream covariance
    matrices stay positive definite.
    """
    if not snippets:
        return PriorEstimate(mean=0.0, variance=1.0, count=0)
    values = np.array(
        [observation_value(snippet, domains) for snippet in snippets], dtype=np.float64
    )
    mean = float(values.mean())
    if len(values) >= 2:
        variance = float(values.var(ddof=1))
    else:
        variance = 0.0
    if variance <= 0.0:
        magnitude = max(abs(mean), 1.0)
        variance = (0.1 * magnitude) ** 2
    return PriorEstimate(mean=mean, variance=variance, count=len(values))
