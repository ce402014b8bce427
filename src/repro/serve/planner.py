"""Budget-aware query planning: route each request to the cheapest engine.

Every request arrives with a :class:`ServiceBudget` (maximum relative error
bound, maximum model-time latency).  The :class:`QueryPlanner` inspects the
parsed query, the supported-class check, and the current synopsis, and emits
an ordered list of :class:`RouteDecision`\\ s -- cheapest first -- for the
service to try:

1. **cached** -- a previously computed answer whose synopsis/catalog versions
   are still current and whose error bound fits the budget (checked by the
   service, which owns the cache);
2. **learned** -- online aggregation improved by Verdict's inference: the
   first sample batch usually already meets a loose error budget because the
   synopsis tightens the bound (the paper's Figure 4 effect), making this the
   cheapest non-cached route on a warm service;
3. **online_agg** -- plain online aggregation, refining batch by batch until
   the raw CLT bound meets the budget (works for supported *and* unsupported
   aggregate queries);
4. **exact** -- the exact executor: always correct, always the most
   expensive (a full denormalised scan under the cost model).

Cost estimates use the same deterministic cost model the AQP engines
charge (``CostModelConfig.charge``), so "cheapest" is well-defined and
reproducible, and a one-batch sampled answer costs exactly its estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.aqp.estimators import confidence_multiplier
from repro.core.engine import VerdictEngine
from repro.db.scan import estimate_scan_rows
from repro.errors import ServiceError
from repro.sqlparser import ast
from repro.sqlparser.checker import CheckResult


class Route(str, enum.Enum):
    """The four ways the serving layer can answer a request."""

    CACHED = "cached"
    LEARNED = "learned"
    ONLINE_AGG = "online_agg"
    EXACT = "exact"


@dataclass(frozen=True)
class ServiceBudget:
    """Per-request error / latency budget.

    Parameters
    ----------
    max_relative_error:
        Largest acceptable mean relative error *bound* (at the service's
        confidence level).  ``0.0`` demands an exact answer; ``None`` means
        any approximation is acceptable (best effort, cheapest route wins).
    max_latency_s:
        Largest acceptable latency in *model* seconds (the deterministic IO
        cost model's clock, not wall time).  ``None`` means unbounded.
    deadline_s:
        Hard **wall-clock** deadline for the whole request, in real seconds.
        Unlike ``max_latency_s`` (a planning input on the deterministic cost
        model's clock) this is enforced at run time with cooperative
        cancellation: when it expires mid-request the service returns the
        best partial estimate flagged *degraded*, or raises
        :class:`~repro.errors.DeadlineExceeded` (HTTP 504) when no estimate
        exists yet.  ``None`` means no deadline.
    """

    max_relative_error: float | None = None
    max_latency_s: float | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_relative_error is not None and self.max_relative_error < 0:
            raise ServiceError("max_relative_error must be non-negative")
        if self.max_latency_s is not None and self.max_latency_s <= 0:
            raise ServiceError("max_latency_s must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError("deadline_s must be positive")

    @property
    def requires_exact(self) -> bool:
        return self.max_relative_error is not None and self.max_relative_error == 0.0

    def error_met(self, relative_error_bound: float) -> bool:
        """Whether an answer with this error bound satisfies the budget."""
        if self.max_relative_error is None:
            return True
        return relative_error_bound <= self.max_relative_error

    @classmethod
    def exact(cls, max_latency_s: float | None = None) -> "ServiceBudget":
        """A budget demanding the exact answer."""
        return cls(max_relative_error=0.0, max_latency_s=max_latency_s)

    @classmethod
    def interactive(
        cls, max_relative_error: float = 0.05, max_latency_s: float | None = None
    ) -> "ServiceBudget":
        """A typical dashboard budget: 5% error bound, optional latency cap."""
        return cls(max_relative_error=max_relative_error, max_latency_s=max_latency_s)


@dataclass(frozen=True)
class RouteDecision:
    """One planned route with the planner's reasoning and cost estimates.

    ``estimated_rows`` is the rows the route is expected to touch (the
    pruned-scan estimate for exact, the first sample batch for the
    approximate routes; both plus the dimension rows their joins read).
    ``estimated_seconds`` charges those rows with ``CostModelConfig.charge``,
    the function the AQP engines charge: a sampled route answered in one
    batch reports exactly this many model seconds, and the exact route
    reports its estimate.  ``estimated_error`` is the planner's
    a-priori relative-error-bound proxy: ``0.0`` for exact; for the sample
    routes the unit-coefficient-of-variation CLT bound
    ``multiplier / sqrt(first-batch sample rows)`` (a join's dimension rows
    are read whole, not sampled) -- the actual bound scales with the
    data's dispersion, but the proxy ranks routes and, recorded next to the
    observed bound in the request trace, is the predicted-vs-observed pair
    the adaptive planner will calibrate on.
    """

    route: Route
    reason: str
    estimated_seconds: float
    estimated_rows: int = 0
    estimated_error: float | None = None

    def as_dict(self) -> dict:
        """Plain-data rendering for EXPLAIN output and trace attributes."""
        return {
            "route": self.route.value,
            "reason": self.reason,
            "estimated_seconds": self.estimated_seconds,
            "estimated_rows": self.estimated_rows,
            "estimated_error": self.estimated_error,
        }


class QueryPlanner:
    """Plans the route order for one request given its budget."""

    def __init__(self, engine: VerdictEngine):
        self.engine = engine
        self.multiplier = confidence_multiplier(engine.config.confidence)

    # ------------------------------------------------------------------ public

    def plan(
        self, query: ast.Query, check: CheckResult, budget: ServiceBudget
    ) -> list[RouteDecision]:
        """Ordered route preference (cheapest first) for one request.

        The cached route is not planned here: the service consults its answer
        cache before calling the planner (a hit needs no plan at all).  A
        route is planned exactly when :meth:`excluded` gives no reason.
        """
        charge = self.engine.aqp.cost_model.charge
        decisions: list[RouteDecision] = []
        sampled = [
            route
            for route in (Route.LEARNED, Route.ONLINE_AGG)
            if self.excluded(route, query, check, budget) is None
        ]
        if sampled:
            batch_scan = self._first_batch_scan(query)
            batch_rows = sum(batch_scan)
            batch_cost = charge(*batch_scan)
            # Only the sample rows are sampled: a join reads its dimension
            # tables whole, and their rows do not shrink the CLT bound.
            # Theorem 1: the improved bound is never larger than the raw
            # first-batch bound, so the raw proxy is a (conservative)
            # estimate for the learned route too.
            batch_error = self.estimated_batch_error(batch_scan[0])
        for route in sampled:
            if route is Route.LEARNED:
                reason = (
                    f"synopsis holds {self.synopsis_snippets_for(query.table)} "
                    f"snippets for {query.table!r}; "
                    "inference tightens the first-batch bound"
                )
            elif budget.max_relative_error is not None:
                reason = "online aggregation refines the raw CLT bound batch by batch"
            else:
                reason = "no error budget given; cheapest raw approximation"
            decisions.append(
                RouteDecision(
                    route=route,
                    reason=reason,
                    estimated_seconds=batch_cost,
                    estimated_rows=batch_rows,
                    estimated_error=batch_error,
                )
            )
        exact_scan = self._exact_scan(query)
        decisions.append(
            RouteDecision(
                route=Route.EXACT,
                reason=(
                    "budget demands an exact answer"
                    if budget.requires_exact
                    else "fallback: exact scan always meets any error budget"
                ),
                estimated_seconds=charge(*exact_scan),
                estimated_rows=sum(exact_scan),
                estimated_error=0.0,
            )
        )
        return decisions

    def excluded(
        self, route: Route, query: ast.Query, check: CheckResult, budget: ServiceBudget
    ) -> str | None:
        """Why :meth:`plan` leaves ``route`` out of this request, or ``None``.

        An exact budget excludes both sampled routes before anything else is
        looked at.  The learned route further needs a supported query class
        and ready snippets for its table.  Online aggregation stays in the
        plan even when the learned route precedes it, as the fallback for
        inference *errors* -- the service skips it whenever the learned
        route produced an answer, since the improved bound is never larger
        than the raw bound (Theorem 1).  The exact route is never excluded.
        """
        if route is Route.EXACT:
            return None
        if budget.requires_exact:
            return "budget demands an exact answer"
        if route is Route.LEARNED:
            if not check.supported:
                return "query class is unsupported by the learned synopsis"
            if self.synopsis_snippets_for(query.table) <= 0:
                return f"synopsis holds no ready snippets for {query.table!r}"
        return None

    # --------------------------------------------------------------- estimates

    def synopsis_snippets_for(self, table: str) -> int:
        """How many past snippets the synopsis holds for one fact table."""
        synopsis = self.engine.synopsis
        threshold = max(self.engine.config.min_past_snippets, 1)
        total = 0
        for key in synopsis.keys():
            if key.table == table:
                count = synopsis.count(key)
                if count >= threshold:
                    total += count
        return total

    def estimated_exact_seconds(self, query: ast.Query) -> float:
        """Model seconds for an exact answer: a *pruned* denormalised scan.

        The exact executor scans partition-wise and skips partitions whose
        zone maps prove no row can match (:mod:`repro.db.scan`), so the cost
        estimate charges only the rows of the surviving partitions -- a
        selective predicate over clustered data makes the exact route far
        cheaper than a full scan, and the planner's route ordering sees that.
        Predicates over joined dimension attributes prune conservatively
        (they are not resolvable on the fact table alone).
        """
        return self.engine.aqp.cost_model.charge(*self._exact_scan(query))

    def estimated_exact_rows(self, query: ast.Query) -> int:
        """Rows the exact route must touch: pruned fact scan plus dimensions."""
        return sum(self._exact_scan(query))

    def estimated_first_batch_seconds(self, query: ast.Query) -> float:
        """Model seconds for the cheapest approximate answer (one batch)."""
        return self.engine.aqp.cost_model.charge(*self._first_batch_scan(query))

    def estimated_first_batch_rows(self, query: ast.Query) -> int:
        """Rows one sample batch touches, dimension joins included."""
        return sum(self._first_batch_scan(query))

    def estimated_batch_error(self, batch_rows: int) -> float:
        """A-priori relative-error-bound proxy for a ``batch_rows`` sample.

        The CLT bound at the planner's confidence, assuming a unit
        coefficient of variation (the dispersion term the planner cannot
        know without scanning).  See :class:`RouteDecision`.
        """
        return self.multiplier / math.sqrt(max(batch_rows, 1))

    def _exact_scan(self, query: ast.Query) -> tuple[int, int]:
        """(pruned fact rows, dimension rows) the exact route reads."""
        catalog = self.engine.catalog
        if catalog.has_table(query.table):
            rows = estimate_scan_rows(catalog.table(query.table), query.where)
        else:
            rows = 0
        return rows, catalog.dimension_rows(query.joins)

    def _first_batch_scan(self, query: ast.Query) -> tuple[int, int]:
        """(sample rows, dimension rows) the first online-aggregation batch reads."""
        catalog = self.engine.catalog
        if not catalog.has_table(query.table):
            return 0, 0
        sample = self.engine.aqp.samples.sample_for(query.table)
        return sample.rows_after_batches(1), catalog.dimension_rows(query.joins)
