"""Correlation-parameter learning (Appendix A).

The length scales ``l_{g,1} .. l_{g,l}`` of the squared-exponential
inter-tuple covariance are learned by maximising the Gaussian log-likelihood
of the past snippet answers (Equation 13):

    log Pr(theta_past | Sigma_n)
        = -1/2 theta^T Sigma_n^{-1} theta - 1/2 log|Sigma_n| - n/2 log 2 pi

where ``Sigma_n`` is the past-answer covariance implied by the candidate
length scales (including the observation-noise diagonal), and ``theta`` are
the centred past answers.  The signal variance ``sigma_g^2`` and the prior
mean are computed analytically (Appendix F.3 / :mod:`repro.core.prior`), so
the optimisation is only over the length scales of numeric attributes that at
least one past snippet actually constrains (the likelihood is flat in the
others).

The paper uses Matlab's ``fminunc``; this reproduction uses
``scipy.optimize.minimize`` (L-BFGS-B) over log length scales, started at the
attribute domain width (the paper's starting point), with a small number of
random restarts since the likelihood is not convex.

Two implementations of the objective coexist:

* :func:`negative_log_likelihood` -- the straightforward reference: rebuild
  the full covariance from the snippet list on every call.  Used for the
  lazy no-learn diagnostic, by the Figure 7 benchmark, and by the tests as
  the oracle the workspace must match bit for bit.
* :class:`LikelihoodWorkspace` -- what the optimiser runs on.  Everything the
  objective needs that does *not* depend on the candidate length scales is
  computed once per :func:`learn_length_scales` call: the distinct range
  pairs of the optimised attributes with their scatter indices, the
  covariance kernel's terms of every other attribute, the observation-noise
  diagonal, the centred observations and the analytic prior.  Each
  objective evaluation then only
  recomputes the per-attribute numeric factor matrices ``F_k(l_k)`` on the
  distinct ranges and assembles ``Sigma_n = sigma^2 C (*) prod_k F_k`` (with
  ``(*)`` the elementwise product).  The workspace also supplies the
  *analytic* gradient via the standard GP marginal-likelihood identity
  ``d NLL / d theta = 1/2 tr((K^{-1} - alpha alpha^T) dK/d theta)``, so
  L-BFGS-B performs one factorisation per step instead of the ``d + 1``
  finite-difference objective evaluations it needs without a Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize

from repro.config import VerdictConfig
from repro.core import linalg
from repro.core.covariance import AggregateModel, SnippetCovariance
from repro.core.kernel import se_average_factors, se_coefficients
from repro.core.prior import estimate_prior, observation_error, observation_value
from repro.core.regions import AttributeDomains
from repro.core.snippet import Snippet, SnippetKey
from repro.errors import InferenceError, LearningError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LearnedParameters:
    """Result of learning the correlation parameters of one aggregate.

    ``log_likelihood`` is evaluated lazily when learning did not run (the
    no-learn / too-few-snippets paths): callers that never read it -- the
    engine's training loop only needs the scales -- then never pay the
    O(n^3) likelihood factorisation it would cost.
    """

    key: SnippetKey
    length_scales: dict[str, float]
    sigma2: float
    optimized_attributes: tuple[str, ...]
    converged: bool
    _log_likelihood: float | None = field(default=None, compare=False)
    _log_likelihood_thunk: Callable[[], float] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def log_likelihood(self) -> float:
        """Log-likelihood at the returned length scales (cached once computed)."""
        if self._log_likelihood is None:
            thunk = self._log_likelihood_thunk
            value = 0.0 if thunk is None else float(thunk())
            object.__setattr__(self, "_log_likelihood", value)
            # Release the closure: it pins the snippet list and domains,
            # and engines retain LearnedParameters across trainings.
            object.__setattr__(self, "_log_likelihood_thunk", None)
        return self._log_likelihood

    def as_model(self) -> AggregateModel:
        return AggregateModel(key=self.key, length_scales=dict(self.length_scales))


def negative_log_likelihood(
    length_scales: dict[str, float],
    key: SnippetKey,
    snippets: Sequence[Snippet],
    domains: AttributeDomains,
    jitter: float = 1e-9,
) -> float:
    """Negative log-likelihood of past answers under given length scales.

    Exposed separately so tests (and the Figure 7 benchmark) can inspect the
    likelihood surface directly.  This is the reference implementation: it
    rebuilds every covariance piece from the snippet list on each call.  The
    optimiser's hot loop uses :class:`LikelihoodWorkspace`, which computes
    the same value (property-tested to agree) without the per-call rebuild.
    """
    past = list(snippets)
    if len(past) < 2:
        return 0.0
    model = AggregateModel(key=key, length_scales=length_scales)
    covariance = SnippetCovariance(domains, model)
    prior = estimate_prior(past, domains)

    factors = covariance.factor_matrix(past)
    mean_diagonal = float(np.mean(np.diag(factors)))
    sigma2 = prior.variance / (mean_diagonal if mean_diagonal > 0 else 1.0)

    noise = np.array(
        [observation_error(snippet, domains) ** 2 for snippet in past], dtype=np.float64
    )
    matrix = sigma2 * factors + np.diag(noise)
    linalg.add_jitter(matrix, jitter)
    observations = np.array(
        [observation_value(snippet, domains) for snippet in past], dtype=np.float64
    )
    centered = observations - prior.mean
    try:
        cho, _ = linalg.robust_cholesky(matrix, 0.0, max_attempts=1)
    except InferenceError:
        return float("inf")
    alpha = linalg.solve_factored(cho, centered)
    log_det = linalg.log_determinant(cho)
    value = 0.5 * float(centered @ alpha) + 0.5 * log_det + 0.5 * len(past) * _LOG_2PI
    if not math.isfinite(value):
        return float("inf")
    return value


@dataclass(frozen=True)
class _VariableAttribute:
    """Distinct-range data of one numeric attribute the optimiser varies."""

    position: int  # in the kernel's product order
    bounds: np.ndarray  # (4, r*r) low_1, high_1, low_2, high_2 of every distinct pair
    scatter: np.ndarray  # (n*n,) flat gather indices into the (r, r) block


class LikelihoodWorkspace:
    """Precomputed, length-scale-independent pieces of the Eq. 13 likelihood.

    Built once per :func:`learn_length_scales` call.  The factor matrix of
    the candidate length scales is the covariance kernel's product
    (:meth:`repro.core.covariance.SnippetCovariance.product`: sorted numeric
    attributes, then sorted categorical attributes, then symmetrisation)
    with the terms of attributes the optimiser does not vary taken once from
    the kernel -- so the workspace NLL is *bit-identical* to
    :func:`negative_log_likelihood` at the same scales, not merely close.

    Per objective evaluation the workspace computes, for each optimised
    attribute ``k``, the factor matrix ``F_k(l_k)`` (and, on the gradient
    path, its derivative ``F'_k = dF_k / d log l_k``) on the attribute's
    *distinct* range pairs only -- every attribute in one call of the
    kernel's evaluator, :func:`repro.core.kernel.se_average_factors` --
    scattering back through precomputed flat gather indices.  The gradient
    uses the product structure

        dK/d log l_k = dsigma^2/d log l_k * F  +  sigma^2 * C (*) F'_k (*) prod_{j != k} F_j

    where the first term carries the chain-rule dependency of the calibrated
    signal variance ``sigma^2 = var / mean(diag F)`` on the length scales
    through the factor diagonal.
    """

    def __init__(
        self,
        key: SnippetKey,
        snippets: Sequence[Snippet],
        domains: AttributeDomains,
        attributes: Sequence[str] | None = None,
        jitter: float = 1e-9,
    ):
        self.key = key
        self.snippets = list(snippets)
        self.domains = domains
        self.jitter = jitter
        if attributes is None:
            attributes = constrained_numeric_attributes(self.snippets, domains)
        self.attributes: tuple[str, ...] = tuple(attributes)
        self.n = len(self.snippets)

        self.prior = estimate_prior(self.snippets, domains)
        self.noise = np.array(
            [observation_error(snippet, domains) ** 2 for snippet in self.snippets],
            dtype=np.float64,
        )
        observations = np.array(
            [observation_value(snippet, domains) for snippet in self.snippets],
            dtype=np.float64,
        )
        self.centered = observations - self.prior.mean
        self._diag_indices = np.diag_indices(self.n)
        # Strictly-lower-triangular mask used to symmetrise the one-triangle
        # output of ``dpotri`` without two O(n^2) ``np.tril`` copies.
        self._strict_lower = np.tril(np.ones((self.n, self.n), dtype=np.float64), -1)

        # Scale k of nll(log_scales) belongs to self.attributes[k], whatever
        # order the caller chose; the product still multiplies in the
        # kernel's order, so the two orders must be decoupled.
        optimized = {name: k for k, name in enumerate(self.attributes)}
        if len(optimized) != len(self.attributes):
            raise LearningError("duplicate attribute in workspace attributes")
        unknown = set(optimized) - set(domains.numeric)
        if unknown:
            raise LearningError(
                f"workspace attributes not in the numeric domains: {sorted(unknown)}"
            )
        defaults = domains.default_length_scales()
        covariance = SnippetCovariance(domains, AggregateModel(key=key, length_scales=defaults))
        layout = covariance.layout(self.snippets)
        # Every attribute's term at the default scales; an optimised
        # attribute's is replaced per evaluation.
        self._terms = covariance.terms(layout, layout)
        self._variable: list[_VariableAttribute] = []
        for name in self.attributes:
            position = covariance.attributes.index(name)
            bounds = layout.slots[position].bounds
            distinct = bounds.shape[1]
            index = layout.index[position]
            self._variable.append(_VariableAttribute(
                position=position,
                bounds=np.concatenate(
                    [np.repeat(bounds, distinct, axis=1), np.tile(bounds, distinct)]
                ),
                # block[np.ix_(index, index)] as one flat take: the (i, j)
                # output entry reads block cell (index[i], index[j]).
                scatter=(index[:, None] * distinct + index[None, :]).ravel(),
            ))
        variable = {v.position for v in self._variable}

        # Collapsed product of every constant term, used by the gradient
        # path (where bit-exact multiplication order does not matter).
        constant_product: float | np.ndarray | None = None
        for position, term in enumerate(self._terms):
            if position not in variable:
                constant_product = term if constant_product is None else constant_product * term
        self._has_constant = constant_product is not None
        self._constant_product = constant_product
        sizes = [v.bounds.shape[1] for v in self._variable]
        self._flat_bounds = (
            np.concatenate([v.bounds for v in self._variable], axis=1)
            if self._variable
            else np.zeros((4, 0))
        )
        self._flat_slices = np.cumsum([0] + sizes)
        self._flat_segment = np.repeat(np.arange(len(sizes)), sizes)

    def _variable_factors(
        self, log_scales: np.ndarray, with_grad: bool
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-attribute factor matrices (and log-scale derivatives),
        scattered to full ``(n, n)`` shape, from one evaluation over every
        optimised attribute's distinct pairs."""
        values: list[np.ndarray] = []
        grads: list[np.ndarray] = []
        if not self._variable:
            return values, grads
        n = self.n
        coefficients = se_coefficients([np.exp(theta) for theta in log_scales])
        evaluated = se_average_factors(
            *self._flat_bounds, coefficients[:, self._flat_segment], with_grad
        )
        factor_flat, grad_flat = evaluated if with_grad else (evaluated, None)
        for k, variable in enumerate(self._variable):
            segment = slice(self._flat_slices[k], self._flat_slices[k + 1])
            values.append(factor_flat[segment].take(variable.scatter).reshape(n, n))
            if with_grad:
                grads.append(grad_flat[segment].take(variable.scatter).reshape(n, n))
        return values, grads

    # ------------------------------------------------------------- objective

    def nll(self, log_scales: Sequence[float] | np.ndarray) -> float:
        """Negative log-likelihood at ``log_scales`` (one per attribute)."""
        value, _ = self._evaluate(np.asarray(log_scales, dtype=np.float64), False)
        return value

    def nll_and_grad(
        self, log_scales: Sequence[float] | np.ndarray
    ) -> tuple[float, np.ndarray]:
        """``(NLL, d NLL / d log_scales)`` with one factorisation total."""
        return self._evaluate(np.asarray(log_scales, dtype=np.float64), True)

    # -------------------------------------------------------------- internals

    def _evaluate(
        self, log_scales: np.ndarray, with_grad: bool
    ) -> tuple[float, np.ndarray]:
        d = len(self.attributes)
        zeros = np.zeros(d, dtype=np.float64)
        if self.n < 2:
            return 0.0, zeros
        if len(log_scales) != d:
            raise LearningError(
                f"expected {d} log length scales, got {len(log_scales)}"
            )

        values, grads = self._variable_factors(log_scales, with_grad)
        terms = list(self._terms)
        for variable, value in zip(self._variable, values):
            terms[variable.position] = value
        factors = linalg.symmetrize(SnippetCovariance.product(terms, (self.n, self.n)))

        mean_diagonal = float(np.mean(np.diag(factors)))
        sigma2 = self.prior.variance / (mean_diagonal if mean_diagonal > 0 else 1.0)
        matrix = sigma2 * factors
        matrix[self._diag_indices] += self.noise
        linalg.add_jitter(matrix, self.jitter)
        try:
            # Equivalent to linalg.robust_cholesky(matrix, 0.0,
            # max_attempts=1) but factorising in place -- `matrix` is this
            # evaluation's private temporary, and every input is finite by
            # construction (factors are clipped, noise and jitter are data).
            cho = cho_factor(matrix, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return float("inf"), zeros
        alpha = linalg.solve_factored(cho, self.centered)
        log_det = linalg.log_determinant(cho)
        value = (
            0.5 * float(self.centered @ alpha)
            + 0.5 * log_det
            + 0.5 * self.n * _LOG_2PI
        )
        if not math.isfinite(value):
            return float("inf"), zeros
        if not with_grad:
            return value, zeros

        # d NLL / d theta = 1/2 tr((K^{-1} - alpha alpha^T) dK/d theta).
        # The trace against the symmetric weight matrix makes symmetrising
        # the dK partials a no-op, so they are used as accumulated.
        # ``dpotri`` turns the factor into K^{-1} in n^3/3 flops (a third of
        # solving against the identity), returning one triangle; the mask
        # trick mirrors it without ``np.tril`` copies.
        inverse, info = dpotri(cho[0], lower=1)
        if info == 0:
            below = inverse * self._strict_lower
            k_inverse = below + below.T
            k_inverse[self._diag_indices] += inverse[self._diag_indices]
        else:  # pragma: no cover - lapack failure after a successful potrf
            k_inverse = linalg.solve_factored(cho, np.eye(self.n))
        weight = k_inverse - np.outer(alpha, alpha)
        weight_dot_factors = float(np.einsum("ij,ij->", weight, factors))

        # Prefix/suffix products over (constant, F_1 .. F_d) yield every
        # leave-one-out product in 2(d-1) elementwise passes.
        chain: list[np.ndarray] = values
        prefix: list[np.ndarray | None] = [None] * d  # product of chain[:k]
        suffix: list[np.ndarray | None] = [None] * d  # product of chain[k+1:]
        if self._has_constant:
            prefix[0] = self._constant_product
        for k in range(1, d):
            left = chain[k - 1]
            prefix[k] = left if prefix[k - 1] is None else prefix[k - 1] * left
        for k in range(d - 2, -1, -1):
            right = chain[k + 1]
            suffix[k] = right if suffix[k + 1] is None else chain[k + 1] * suffix[k + 1]
        gradient = np.empty(d, dtype=np.float64)
        for k in range(d):
            d_factors = grads[k]
            if prefix[k] is not None:
                d_factors = d_factors * prefix[k]
            if suffix[k] is not None:
                d_factors = d_factors * suffix[k]
            d_mean = float(np.trace(d_factors)) / self.n
            d_sigma2 = (
                -(sigma2 / mean_diagonal) * d_mean if mean_diagonal > 0 else 0.0
            )
            gradient[k] = 0.5 * (
                d_sigma2 * weight_dot_factors
                + sigma2 * float(np.einsum("ij,ij->", weight, d_factors))
            )
        return value, gradient


def constrained_numeric_attributes(
    snippets: Sequence[Snippet], domains: AttributeDomains
) -> list[str]:
    """Numeric attributes constrained by at least one past snippet."""
    constrained: set[str] = set()
    for snippet in snippets:
        for numeric_range in snippet.region.numeric_ranges:
            if numeric_range.name in domains.numeric:
                constrained.add(numeric_range.name)
    return sorted(constrained)


def learn_length_scales(
    key: SnippetKey,
    snippets: Sequence[Snippet],
    domains: AttributeDomains,
    config: VerdictConfig | None = None,
    seed: int = 0,
    warm_start: Mapping[str, float] | None = None,
) -> LearnedParameters:
    """Learn length scales for one aggregate function from its past snippets.

    Parameters
    ----------
    key, snippets, domains:
        The aggregate function, its past snippets, and the attribute domains.
    config:
        ``learning_restarts`` / ``max_learning_snippets`` bound the work.
    seed:
        Seed for the random restart starting points.
    warm_start:
        Length scales from a previous training round.  When given, the
        optimiser starts from them (clipped into the search bounds) plus the
        domain-width start, *instead of* the random restarts -- a prior
        optimum is a far better starting point than a random perturbation,
        so repeated trainings converge in fewer objective evaluations.
    """
    config = config or VerdictConfig()
    past = list(snippets)[-config.max_learning_snippets :]
    defaults = domains.default_length_scales()
    prior = estimate_prior(past, domains)

    attributes = constrained_numeric_attributes(past, domains)
    if len(past) < 3 or not attributes or not config.learn_length_scales:
        scales = dict(defaults)
        return LearnedParameters(
            key=key,
            length_scales=scales,
            sigma2=prior.variance,
            optimized_attributes=(),
            converged=False,
            # Lazy: the no-learn path must not pay an O(n^3) factorisation
            # just to fill in a diagnostic nobody may read.
            _log_likelihood_thunk=lambda: -negative_log_likelihood(
                scales, key, past, domains
            ),
        )

    widths = np.array([max(defaults[name], 1e-9) for name in attributes], dtype=np.float64)
    lower = np.log(widths * 1e-3)
    upper = np.log(widths * 10.0)

    workspace = LikelihoodWorkspace(key, past, domains, attributes, jitter=config.jitter)

    rng = np.random.default_rng(seed)
    best_value = float("inf")
    best_scales = np.log(widths)
    converged = False
    starts = []
    if warm_start is not None:
        warm = np.array(
            [max(float(warm_start.get(name, defaults[name])), 1e-12) for name in attributes],
            dtype=np.float64,
        )
        starts.append(np.clip(np.log(warm), lower, upper))
    starts.append(np.log(widths))
    if warm_start is None:
        for _ in range(max(config.learning_restarts - 1, 0)):
            starts.append(np.log(widths) + rng.uniform(-2.0, 1.0, size=len(widths)))
    for start in starts:
        try:
            outcome = minimize(
                workspace.nll_and_grad,
                start,
                method="L-BFGS-B",
                jac=True,
                bounds=list(zip(lower, upper)),
                options={"maxiter": 60},
            )
        except (ValueError, FloatingPointError) as exc:  # pragma: no cover - defensive
            raise LearningError(f"length-scale optimisation failed: {exc}") from exc
        if outcome.fun < best_value and math.isfinite(outcome.fun):
            best_value = float(outcome.fun)
            best_scales = np.asarray(outcome.x, dtype=np.float64)
            converged = bool(outcome.success)

    length_scales = dict(defaults)
    length_scales.update(
        {name: float(np.exp(value)) for name, value in zip(attributes, best_scales)}
    )
    return LearnedParameters(
        key=key,
        length_scales=length_scales,
        sigma2=prior.variance,
        optimized_attributes=tuple(attributes),
        converged=converged,
        _log_likelihood=-best_value,
    )
