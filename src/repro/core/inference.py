"""Maximum-entropy (Gaussian) inference over snippet answers (Section 3).

Given the query synopsis (past snippets with raw answers and raw errors) and
the new snippet's raw answer / error, Verdict computes the most likely exact
answer of the new snippet under the maximum-entropy joint distribution
consistent with first- and second-order statistics -- which, by Lemma 1, is a
multivariate normal with the covariances of Section 4.

Two equivalent computations are provided:

* :meth:`GaussianInference.infer` -- the O(n^2) block form of Equations (11)
  and (12): a GP prediction from past snippets alone (``theta``, ``gamma^2``)
  combined with the raw answer by precision weighting.  This is the form used
  by Theorem 1 and the one Verdict uses at query time, with the expensive
  ``Sigma_n^{-1}`` factorisation prepared offline.
* :meth:`GaussianInference.infer_direct` -- the direct conditioning of
  Equations (4) and (5) on the full (n+2)-variable joint, kept as an O(n^3)
  reference implementation for the ablation benchmark and the property tests.

The inference works in *observation space*: AVG answers directly, FREQ
answers converted to densities (see :mod:`repro.core.prior`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.config import VerdictConfig
from repro.core import linalg
from repro.core.covariance import AggregateModel, RegionEncoding, SnippetCovariance
from repro.core.prior import (
    PriorEstimate,
    answer_from_observation,
    error_from_observation,
    estimate_prior,
    observation_error,
    observation_value,
)
from repro.core.regions import AttributeDomains, Region
from repro.core.snippet import Snippet, SnippetKey

_MIN_VARIANCE = 1e-18
# Regions whose GP posterior one PreparedInference remembers; the memo is
# dropped wholesale beyond this, so a long-lived factor cannot grow unbounded.
_POSTERIOR_MEMO_LIMIT = 4_096


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of inferring one new snippet's model-based answer.

    ``model_answer`` / ``model_error`` are the paper's ``theta-double-dot`` and
    ``beta-double-dot``; ``gp_mean`` / ``gp_error`` are the prediction obtained
    from past snippets alone (before combining with the raw answer), useful
    for diagnostics and for the Figure 1 style illustrations.
    """

    model_answer: float
    model_error: float
    gp_mean: float
    gp_error: float
    raw_answer: float
    raw_error: float
    past_snippets_used: int

    @property
    def improved(self) -> bool:
        """Whether the model tightened the raw error at all."""
        return self.model_error < self.raw_error


@dataclass
class PreparedInference:
    """Precomputed quantities for one aggregate function's synopsis.

    Holds the factorised past-snippet covariance matrix so each query-time
    inference is a matrix-vector product (Lemma 2's O(n^2) bound); rebuilding
    this object is the "offline" step of Algorithm 1.

    ``calibration`` is a variance-inflation factor (>= 1) estimated from the
    leave-one-out residuals of the past snippets.  The paper estimates the
    signal variance ``sigma_g^2`` analytically from the past answers
    (Appendix F.3); when the kernel cannot fully explain the variation of the
    past answers, that analytic estimate makes the model-based error overly
    optimistic.  Scaling the model (GP) variance so that the standardised
    leave-one-out residuals have unit mean square is a better analytic
    estimate of the same quantity and keeps the reported confidence intervals
    honest (Figure 5) without changing the inference structure; Theorem 1 is
    unaffected because the improved error remains a precision-weighted
    combination with the raw error.

    Incremental growth: ``jitter`` is the absolute diagonal regularisation of
    the current factor, ``inverse_diagonal`` is ``diag(Sigma_n^{-1})`` (kept
    only when calibration is enabled) and ``base_size`` is the snippet count
    at the last *full* factorisation.  :meth:`GaussianInference.extend`
    appends rows/columns to ``cho`` in O(n^2 k) via
    :func:`repro.core.linalg.extend_cholesky`, keeping ``sigma2`` and
    ``jitter`` frozen until the next full rebuild (see
    ``VerdictConfig.incremental_rebuild_ratio``).

    Derived state (never serialised): ``encoding`` is the columnar
    :class:`~repro.core.covariance.RegionEncoding` of ``snippets``, built by
    ``prepare``, grown by ``extend`` and rebuilt on first use after a
    restore; ``posterior_memo`` maps a new snippet's region to the GP
    posterior ``(mean, gamma^2)`` there, which depends on the past evidence
    only.  Every mutation of that evidence produces a *new*
    ``PreparedInference`` whose memo starts empty, so the memo needs no
    invalidation of its own.
    """

    key: SnippetKey
    snippets: list[Snippet]
    covariance: SnippetCovariance
    prior: PriorEstimate
    sigma2: float
    observations: np.ndarray
    noise_variances: np.ndarray
    centered: np.ndarray
    cho: tuple[np.ndarray, bool]
    alpha: np.ndarray
    calibration: float = 1.0
    synopsis_version: int = -1
    jitter: float = 0.0
    inverse_diagonal: np.ndarray | None = None
    base_size: int = 0
    encoding: RegionEncoding | None = field(default=None, repr=False, compare=False)
    posterior_memo: dict[Region, tuple[float, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.snippets)

    @functools.cached_property
    def snippet_ids(self) -> tuple[int, ...]:
        """Synopsis ids of ``snippets``, in order (``snippets`` is never
        mutated in place, so the tuple is built once)."""
        return tuple(snippet.snippet_id for snippet in self.snippets)

    def past_encoding(self) -> RegionEncoding:
        """The region encoding of ``snippets`` (built once, then reused)."""
        if self.encoding is None:
            self.encoding = self.covariance.encode(self.snippets)
        return self.encoding

    @property
    def appended_since_base(self) -> int:
        """Snippets appended by :meth:`GaussianInference.extend` since the
        last full factorisation."""
        return self.size - self.base_size


class GaussianInference:
    """Builds prepared models and computes improved answers from them."""

    def __init__(self, config: VerdictConfig | None = None):
        self.config = config or VerdictConfig()

    # ----------------------------------------------------------------- prepare

    def prepare(
        self,
        key: SnippetKey,
        snippets: Sequence[Snippet],
        model: AggregateModel,
        domains: AttributeDomains,
        synopsis_version: int = -1,
    ) -> PreparedInference | None:
        """Factorise the past-snippet covariance for one aggregate function.

        Returns ``None`` when there are no past snippets (inference then
        passes raw answers through unchanged, as required by Theorem 1's
        equality case).
        """
        past = list(snippets)
        if not past:
            return None
        covariance = SnippetCovariance(domains, model)
        prior = estimate_prior(past, domains)

        encoding = covariance.encode(past)
        factors = covariance.factor_matrix(encoding)
        mean_diagonal = float(np.mean(np.diag(factors)))
        if mean_diagonal <= 0:
            mean_diagonal = 1.0
        sigma2 = prior.variance / mean_diagonal

        observations = np.array(
            [observation_value(snippet, domains) for snippet in past], dtype=np.float64
        )
        noise = np.array(
            [observation_error(snippet, domains) ** 2 for snippet in past],
            dtype=np.float64,
        )
        matrix = sigma2 * factors + np.diag(noise)
        cho, jitter = linalg.robust_cholesky(matrix, self.config.jitter)
        centered = observations - prior.mean
        alpha = linalg.solve_factored(cho, centered)
        if self.config.calibrate_model_variance:
            inverse_diagonal = np.clip(
                np.diag(linalg.solve_factored(cho, np.eye(len(past)))), 1e-300, None
            )
            calibration = _loo_calibration(alpha, inverse_diagonal)
        else:
            inverse_diagonal = None
            calibration = 1.0
        return PreparedInference(
            key=key,
            snippets=past,
            covariance=covariance,
            prior=prior,
            sigma2=sigma2,
            observations=observations,
            noise_variances=noise,
            centered=centered,
            cho=cho,
            alpha=alpha,
            calibration=calibration,
            synopsis_version=synopsis_version,
            jitter=jitter,
            inverse_diagonal=inverse_diagonal,
            base_size=len(past),
            encoding=encoding,
        )

    def extend(
        self,
        prepared: PreparedInference,
        new_snippets: Sequence[Snippet],
        synopsis_version: int = -1,
    ) -> PreparedInference | None:
        """Rank-k extension of a prepared factorisation with appended snippets.

        Where :meth:`prepare` re-runs the O(n^3) factorisation, this appends
        ``k`` rows/columns to the existing Cholesky factor in O(n^2 k) via
        the block identity of :func:`repro.core.linalg.extend_cholesky`, so
        recording a query's snippets makes the *next* query cheaper instead
        of slower -- the scalability promise of database learning.

        The signal variance ``sigma_g^2`` and the absolute diagonal jitter
        are frozen at their last full-factorisation values (they scale the
        whole matrix, so refreshing them would invalidate the factor); the
        prior mean, the dual weights ``alpha``, the inverse diagonal and the
        leave-one-out calibration are all refreshed exactly.

        Parameters
        ----------
        prepared:
            The factorisation to extend (not modified).
        new_snippets:
            Snippets appended to the synopsis since ``prepared`` was built.
        synopsis_version:
            Version stamp of the synopsis after the appends.

        Returns
        -------
        A new :class:`PreparedInference`, or ``None`` when the extension is
        numerically unsafe (the caller then falls back to :meth:`prepare`).
        """
        fresh = list(new_snippets)
        if not fresh:
            return prepared
        domains = prepared.covariance.domains
        past_encoding = prepared.past_encoding()
        fresh_encoding = prepared.covariance.encode(fresh)
        cross = prepared.sigma2 * prepared.covariance.factor_matrix(
            past_encoding, fresh_encoding
        )
        corner_factors = prepared.covariance.factor_matrix(fresh_encoding)
        new_noise = np.array(
            [observation_error(snippet, domains) ** 2 for snippet in fresh],
            dtype=np.float64,
        )
        corner = prepared.sigma2 * corner_factors + np.diag(new_noise)
        corner[np.diag_indices_from(corner)] += prepared.jitter
        try:
            # A factor that was extended before has a zero upper triangle.
            cho, schur = linalg.extend_cholesky(
                prepared.cho, cross, corner, clean=prepared.appended_since_base > 0
            )
        except np.linalg.LinAlgError:
            return None

        new_observations = np.array(
            [observation_value(snippet, domains) for snippet in fresh], dtype=np.float64
        )
        observations = np.concatenate([prepared.observations, new_observations])
        noise = np.concatenate([prepared.noise_variances, new_noise])
        mean = float(observations.mean())
        prior = PriorEstimate(
            mean=mean, variance=prepared.prior.variance, count=len(observations)
        )
        centered = observations - mean
        alpha = linalg.solve_factored(cho, centered)
        if prepared.inverse_diagonal is not None:
            # The extended factor's bottom-left block is S^T with S = L^{-1}B,
            # already computed by extend_cholesky; reuse it for the inverse
            # diagonal instead of re-solving from scratch.
            half_solved = cho[0][prepared.size :, : prepared.size].T
            inverse_diagonal = np.clip(
                linalg.extend_inverse_diagonal(
                    prepared.cho,
                    prepared.inverse_diagonal,
                    cross,
                    schur,
                    half_solved=half_solved,
                ),
                1e-300,
                None,
            )
            calibration = _loo_calibration(alpha, inverse_diagonal)
        else:
            inverse_diagonal = None
            calibration = 1.0
        return PreparedInference(
            key=prepared.key,
            snippets=prepared.snippets + fresh,
            covariance=prepared.covariance,
            prior=prior,
            sigma2=prepared.sigma2,
            observations=observations,
            noise_variances=noise,
            centered=centered,
            cho=cho,
            alpha=alpha,
            calibration=calibration,
            synopsis_version=synopsis_version,
            jitter=prepared.jitter,
            inverse_diagonal=inverse_diagonal,
            base_size=prepared.base_size,
            encoding=prepared.covariance.encode(fresh, base=past_encoding),
        )

    # ------------------------------------------------------------------- infer

    def infer(self, prepared: PreparedInference | None, new_snippet: Snippet) -> InferenceResult:
        """Equations (11) / (12) for one snippet: a batch of one."""
        return self.infer_batch(prepared, [new_snippet])[0]

    def infer_batch(
        self,
        prepared: PreparedInference | None,
        new_snippets: Sequence[Snippet],
    ) -> list[InferenceResult]:
        """Equations (11) / (12) for all cells of a group-by answer.

        All ``m`` cells sharing one aggregate function are conditioned with a
        single ``(n, m)`` blocked solve on the prepared factor -- one BLAS
        call instead of a Python loop, which is what makes wide group-by
        queries cheap (see ``benchmarks/bench_inference_batching.py``).

        The GP posterior ``(theta, gamma^2)`` of Equation (11) depends on the
        past evidence and the cell's region only, so it is remembered per
        region on ``prepared``: the later online-aggregation batches of one
        query, which re-ask the same regions with tighter raw answers, pay
        only for Equation (12)'s precision-weighted combine.

        Parameters
        ----------
        prepared:
            The factorised past-snippet model, or ``None`` (raw answers are
            then passed through unchanged).
        new_snippets:
            The new snippets to condition; all must share ``prepared.key``'s
            aggregate function.

        Returns
        -------
        One :class:`InferenceResult` per input snippet, in order.
        """
        news = list(new_snippets)
        if prepared is None or prepared.size == 0 or not news:
            return [
                InferenceResult(
                    model_answer=snippet.raw_answer,
                    model_error=snippet.raw_error,
                    gp_mean=snippet.raw_answer,
                    gp_error=snippet.raw_error,
                    raw_answer=snippet.raw_answer,
                    raw_error=snippet.raw_error,
                    past_snippets_used=0,
                )
                for snippet in news
            ]

        domains = prepared.covariance.domains
        posteriors = self._posteriors(prepared, news)
        results: list[InferenceResult] = []
        for snippet, (gp_mean, gamma2) in zip(news, posteriors):
            observed_error = observation_error(snippet, domains)
            model_obs, model_var = _combine(
                gp_mean,
                gamma2,
                observation_value(snippet, domains),
                observed_error * observed_error,
            )
            results.append(
                InferenceResult(
                    model_answer=answer_from_observation(model_obs, snippet, domains),
                    model_error=error_from_observation(
                        math.sqrt(model_var), snippet, domains
                    ),
                    gp_mean=answer_from_observation(gp_mean, snippet, domains),
                    gp_error=error_from_observation(
                        math.sqrt(gamma2), snippet, domains
                    ),
                    raw_answer=snippet.raw_answer,
                    raw_error=snippet.raw_error,
                    past_snippets_used=prepared.size,
                )
            )
        return results

    @staticmethod
    def _posteriors(
        prepared: PreparedInference, news: Sequence[Snippet]
    ) -> list[tuple[float, float]]:
        """Equation (11) at every new snippet's region, through the memo.

        Regions not seen before on this ``prepared`` share one ``(n, m)``
        cross-covariance block and one triangular solve: with ``A = L L^T``,
        ``gamma^2 = kappa^2 - c^T A^{-1} c = kappa^2 - ||L^{-1} c||^2``.
        """
        memo = prepared.posterior_memo
        posteriors = [memo.get(snippet.region) for snippet in news]
        if None in posteriors:
            if len(memo) + posteriors.count(None) > _POSTERIOR_MEMO_LIMIT:
                memo.clear()
                posteriors = [None] * len(news)
            unseen = list(
                {
                    snippet.region: snippet
                    for snippet, known in zip(news, posteriors)
                    if known is None
                }.values()
            )
            covariance = prepared.covariance
            encoding = covariance.encode(unseen)
            cross = prepared.sigma2 * covariance.factor_matrix(
                prepared.past_encoding(), encoding
            )
            kappa2 = prepared.sigma2 * covariance.factor_diagonal(encoding)
            gp_means = prepared.prior.mean + cross.T @ prepared.alpha
            half_solved = linalg.solve_lower(prepared.cho, cross)
            gamma2 = kappa2 - np.einsum("ij,ij->j", half_solved, half_solved)
            gamma2 = np.clip(gamma2, _MIN_VARIANCE, np.maximum(kappa2, _MIN_VARIANCE))
            # Leave-one-out variance calibration (see PreparedInference).
            gamma2 *= prepared.calibration
            for snippet, mean, variance in zip(unseen, gp_means.tolist(), gamma2.tolist()):
                memo[snippet.region] = (mean, variance)
            posteriors = [memo[snippet.region] for snippet in news]
        return posteriors

    def infer_direct(
        self,
        key: SnippetKey,
        snippets: Sequence[Snippet],
        new_snippet: Snippet,
        model: AggregateModel,
        domains: AttributeDomains,
    ) -> InferenceResult:
        """Equations (4) / (5): direct conditioning on the full joint.

        The random variables are ``(theta_1 .. theta_n, theta_{n+1},
        exact_{n+1})``; the first n+1 carry observation noise on the diagonal
        and the conditional mean / variance of the last one given the first
        n+1 is the model-based answer / error.  Kept as the O(n^3) reference
        implementation; must agree with :meth:`infer` (property-tested).
        """
        past = list(snippets)
        raw_answer = new_snippet.raw_answer
        raw_error = new_snippet.raw_error
        if not past:
            return InferenceResult(
                model_answer=raw_answer,
                model_error=raw_error,
                gp_mean=raw_answer,
                gp_error=raw_error,
                raw_answer=raw_answer,
                raw_error=raw_error,
                past_snippets_used=0,
            )
        covariance = SnippetCovariance(domains, model)
        prior = estimate_prior(past, domains)
        factors_past = covariance.factor_matrix(past)
        mean_diagonal = float(np.mean(np.diag(factors_past)))
        sigma2 = prior.variance / (mean_diagonal if mean_diagonal > 0 else 1.0)

        everything = past + [new_snippet]
        n_plus_1 = len(everything)
        factors = covariance.factor_matrix(everything)
        noise = np.array(
            [observation_error(snippet, domains) ** 2 for snippet in everything],
            dtype=np.float64,
        )
        sigma_observed = sigma2 * factors + np.diag(noise)
        # Regularise the *past* block only, with the same jitter scale the
        # block form applies in :meth:`prepare`.  Scaling by the mean diagonal
        # of the full joint and adding it to every entry -- as an earlier
        # revision did -- leaks a jitter proportional to the (large) signal
        # variance into the new snippet's (possibly tiny) observation noise,
        # which inflates the direct conditional variance and makes the two
        # algebraically-identical forms disagree (caught by the property test
        # ``test_block_form_equals_direct_conditioning``).
        past_block = sigma_observed[: n_plus_1 - 1, : n_plus_1 - 1]
        jitter = linalg.jitter_value(np.diag(past_block), self.config.jitter)
        past_block[np.diag_indices_from(past_block)] += jitter

        # Cross covariances between the observed variables and the exact
        # answer of the new snippet: Equation (6) -- the noise term vanishes.
        cross = sigma2 * factors[:, n_plus_1 - 1].copy()
        kappa2 = sigma2 * factors[n_plus_1 - 1, n_plus_1 - 1]

        observations = np.array(
            [observation_value(snippet, domains) for snippet in everything],
            dtype=np.float64,
        )
        centered = observations - prior.mean
        solved = np.linalg.solve(sigma_observed, centered)
        conditional_mean = prior.mean + float(cross @ solved)
        solved_cross = np.linalg.solve(sigma_observed, cross)
        conditional_variance = kappa2 - float(cross @ solved_cross)
        conditional_variance = max(conditional_variance, _MIN_VARIANCE)

        model_answer = answer_from_observation(conditional_mean, new_snippet, domains)
        model_error = error_from_observation(
            math.sqrt(conditional_variance), new_snippet, domains
        )
        return InferenceResult(
            model_answer=model_answer,
            model_error=model_error,
            gp_mean=model_answer,
            gp_error=model_error,
            raw_answer=raw_answer,
            raw_error=raw_error,
            past_snippets_used=len(past),
        )


def _loo_calibration(alpha: np.ndarray, inverse_diagonal: np.ndarray) -> float:
    """Variance-inflation factor from standardised leave-one-out residuals.

    For a Gaussian model with covariance ``K`` (including observation noise)
    and centred observations ``y``, the leave-one-out predictive residual of
    observation ``i`` is ``alpha_i / C_ii`` with predictive variance
    ``1 / C_ii``, where ``alpha = K^{-1} y`` and ``C = K^{-1}``.  The mean of
    the squared standardised residuals ``alpha_i^2 / C_ii`` is ~1 when the
    model's uncertainty is well calibrated; values above one indicate the
    model under-estimates its own error and the posterior variance is inflated
    by that factor.  The factor is never allowed below one (deflating would
    risk overconfidence) and is capped to keep a single outlier from blowing
    up every interval.

    Takes ``diag(K^{-1})`` rather than the factor so the caller can maintain
    the diagonal incrementally (O(n^2 k) per extension) instead of inverting
    from scratch (O(n^3)).
    """
    size = len(alpha)
    if size < 3:
        return 1.0
    standardized_squared = (alpha**2) / inverse_diagonal
    calibration = float(np.mean(standardized_squared))
    if not math.isfinite(calibration):
        return 1.0
    return float(min(max(calibration, 1.0), 100.0))


def _combine(
    gp_mean: float, gamma2: float, observed: float, observed_variance: float
) -> tuple[float, float]:
    """Equation (12): precision-weighted combination of model and raw answer.

    With a zero raw error the raw answer is exact and is returned unchanged
    (the equality case of Theorem 1); with an unbounded model variance the raw
    answer passes through as well.
    """
    if observed_variance <= 0.0:
        return observed, 0.0
    if not math.isfinite(gamma2) or gamma2 <= 0.0:
        return observed, observed_variance
    denominator = observed_variance + gamma2
    value = (observed_variance * gp_mean + gamma2 * observed) / denominator
    variance = (observed_variance * gamma2) / denominator
    return value, variance
