"""Model validation (Appendix B).

Verdict's model is the most likely explanation of the underlying distribution
given the limited information in the query synopsis; when a new snippet
touches data the past never observed, the model can be wrong and its error
bounds overly optimistic.  To guard against that, Verdict validates every
model-based answer against the model-free raw answer of the AQP engine:

* **Negative FREQ estimates** -- the maximum-entropy prior has no
  non-negativity constraint, so a negative model-based FREQ(*) answer is
  rejected outright; even when accepted, a FREQ confidence interval is
  clipped at zero.
* **Unlikely model-based answer** -- compute the "likely region"
  ``(model_answer - t, model_answer + t)`` in which the AQP answer would fall
  with probability ``delta_v`` (0.99 by default) if the model-based answer
  were exact; if the raw answer falls outside it, the model is rejected and
  the raw answer / error are returned unchanged.

Rejecting the model never violates Theorem 1: the improved error simply
equals the raw error in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aqp.estimators import confidence_multiplier
from repro.core.inference import InferenceResult
from repro.core.snippet import AggregateKind


@dataclass(frozen=True)
class ValidationDecision:
    """Outcome of validating one model-based answer."""

    accepted: bool
    reason: str
    improved_answer: float
    improved_error: float
    likely_region_halfwidth: float


def validate_model_answer(
    result: InferenceResult,
    kind: AggregateKind,
    validation_confidence: float = 0.99,
    enabled: bool = True,
    conservative: bool = True,
) -> ValidationDecision:
    """Apply Appendix B's model validation to one inference result.

    Parameters
    ----------
    result:
        The inference outcome (model-based answer/error plus the raw ones).
    kind:
        The internal aggregate kind; FREQ answers additionally undergo the
        non-negativity check.
    validation_confidence:
        ``delta_v``: the confidence level of the likely region.
    enabled:
        Setting this to False reproduces the "no validation" ablation of
        Figure 9 -- the model-based answer is always accepted.
    conservative:
        When True (default), an *accepted* model-based error is floored by the
        disagreement between the raw and model-based answers divided by the
        likely-region multiplier.  Inside the likely region that floor never
        exceeds the raw error, so Theorem 1 is untouched; it only prevents the
        engine from pairing an answer that moved far from the raw answer with
        an error bound much smaller than that move.  This is a conservative
        extension of the Appendix B validation (see "Deviations from the
        paper" in docs/ARCHITECTURE.md).
    """
    multiplier = confidence_multiplier(validation_confidence)
    halfwidth = multiplier * result.raw_error

    if kind is AggregateKind.FREQ and result.model_answer < 0.0:
        if enabled:
            return ValidationDecision(
                accepted=False,
                reason="negative FREQ estimate",
                improved_answer=result.raw_answer,
                improved_error=result.raw_error,
                likely_region_halfwidth=halfwidth,
            )
        # Even without validation a frequency cannot be negative.
        return ValidationDecision(
            accepted=True,
            reason="negative FREQ clipped",
            improved_answer=0.0,
            improved_error=result.model_error,
            likely_region_halfwidth=halfwidth,
        )

    if not enabled:
        return ValidationDecision(
            accepted=True,
            reason="validation disabled",
            improved_answer=result.model_answer,
            improved_error=result.model_error,
            likely_region_halfwidth=halfwidth,
        )

    # If the model-based answer were exact, the AQP answer would fall within
    # +- t of it with probability delta_v; t is driven by the raw error.
    disagreement = abs(result.raw_answer - result.model_answer)
    if disagreement > halfwidth and result.raw_error > 0:
        return ValidationDecision(
            accepted=False,
            reason="raw answer outside likely region",
            improved_answer=result.raw_answer,
            improved_error=result.raw_error,
            likely_region_halfwidth=halfwidth,
        )

    improved_error = result.model_error
    if conservative and multiplier > 0:
        # Inside the likely region, disagreement / multiplier <= raw_error, so
        # this floor never weakens Theorem 1.
        improved_error = max(improved_error, disagreement / multiplier)
        if result.raw_error > 0:
            improved_error = min(improved_error, result.raw_error)
    return ValidationDecision(
        accepted=True,
        reason="model accepted",
        improved_answer=result.model_answer,
        improved_error=improved_error,
        likely_region_halfwidth=halfwidth,
    )
