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

import numpy as np

from repro.aqp.estimators import confidence_multiplier
from repro.core.inference import InferenceResult
from repro.core.snippet import AggregateKind

#: The reason of every decision; :class:`CellDecisions` carries indices.
REASONS = (
    "model accepted",
    "raw answer outside likely region",
    "negative FREQ estimate",
    "negative FREQ clipped",
    "validation disabled",
)
ACCEPTED, OUTSIDE, NEGATIVE, CLIPPED, DISABLED = range(len(REASONS))


@dataclass(frozen=True)
class ValidationDecision:
    """Outcome of validating one model-based answer."""

    accepted: bool
    reason: str
    improved_answer: float
    improved_error: float
    likely_region_halfwidth: float


@dataclass(frozen=True)
class CellDecisions:
    """Outcomes of validating many cells: one entry per cell."""

    accepted: np.ndarray  # bool
    reasons: np.ndarray  # index into REASONS
    answers: np.ndarray
    errors: np.ndarray
    halfwidths: np.ndarray


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
    decisions = validate_cells(
        np.array([result.model_answer], dtype=np.float64),
        np.array([result.model_error], dtype=np.float64),
        np.array([result.raw_answer], dtype=np.float64),
        np.array([result.raw_error], dtype=np.float64),
        kind is AggregateKind.FREQ,
        validation_confidence=validation_confidence,
        enabled=enabled,
        conservative=conservative,
    )
    return ValidationDecision(
        accepted=bool(decisions.accepted[0]),
        reason=REASONS[decisions.reasons[0]],
        improved_answer=float(decisions.answers[0]),
        improved_error=float(decisions.errors[0]),
        likely_region_halfwidth=float(decisions.halfwidths[0]),
    )


def validate_cells(
    model_answers: np.ndarray,
    model_errors: np.ndarray,
    raw_answers: np.ndarray,
    raw_errors: np.ndarray,
    frequencies: np.ndarray | bool,
    validation_confidence: float = 0.99,
    enabled: bool = True,
    conservative: bool = True,
) -> CellDecisions:
    """:func:`validate_model_answer` for cells given as arrays.

    ``frequencies`` marks the FREQ cells (one flag per cell, or one for all),
    which undergo the non-negativity check.  Element-wise, with the scalar
    rule's comparisons: ``max`` and ``min`` keep their first argument on a
    tie or a NaN, as Python's do.
    """
    multiplier = confidence_multiplier(validation_confidence)
    with np.errstate(all="ignore"):
        halfwidths = multiplier * raw_errors
        negative = (model_answers < 0.0) & frequencies
        if not enabled:
            # Even without validation a frequency cannot be negative.
            return CellDecisions(
                accepted=np.ones(len(model_answers), dtype=bool),
                reasons=np.where(negative, CLIPPED, DISABLED),
                answers=np.where(negative, 0.0, model_answers),
                errors=model_errors,
                halfwidths=halfwidths,
            )
        # If the model-based answer were exact, the AQP answer would fall
        # within +- t of it with probability delta_v; t is driven by the raw
        # error.
        disagreements = np.abs(raw_answers - model_answers)
        positive = raw_errors > 0
        outside = (disagreements > halfwidths) & positive
        errors = model_errors
        if conservative and multiplier > 0:
            # Inside the likely region, disagreement / multiplier <= raw_error,
            # so this floor never weakens Theorem 1.
            floors = disagreements / multiplier
            errors = np.where(floors > errors, floors, errors)
            errors = np.where(positive & (raw_errors < errors), raw_errors, errors)
    rejected = negative | outside
    return CellDecisions(
        accepted=~rejected,
        reasons=np.where(negative, NEGATIVE, np.where(outside, OUTSIDE, ACCEPTED)),
        answers=np.where(rejected, raw_answers, model_answers),
        errors=np.where(rejected, raw_errors, errors),
        halfwidths=halfwidths,
    )
