"""EXPLAIN tests: full decision record, and strictly no perturbation.

The contract under test: ``VerdictService.explain`` mirrors exactly what
``query`` would do with the same budget *right now*, while leaving the
service untouched -- no scan, no metrics, no cache eviction or LRU
promotion, no breaker probe consumed.
"""

from __future__ import annotations

import pytest

from repro.config import SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.obs.trace import Span
from repro.serve import ServiceBudget, VerdictService
from repro.serve.breaker import CircuitBreaker
from repro.serve.planner import Route
from repro.workloads.synthetic import make_sales_table

SAMPLING = SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
CONFIG = VerdictConfig(learn_length_scales=False)

SQL = "SELECT AVG(revenue) FROM sales"


@pytest.fixture()
def service():
    table = make_sales_table(num_rows=3_000, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    with VerdictService(
        catalog, sampling=SAMPLING, config=CONFIG, cache_capacity=4
    ) as svc:
        yield svc


class TestDecisionRecord:
    def test_candidate_table_shape(self, service):
        plan = service.explain(SQL, budget=ServiceBudget.interactive())
        assert plan["table"] == "sales"
        assert plan["supported"] is True
        routes = [candidate["route"] for candidate in plan["candidates"]]
        assert routes == ["cached", "learned", "online_agg", "exact"]
        by_route = {candidate["route"]: candidate for candidate in plan["candidates"]}
        # Cold service: no cache, no synopsis -> online_agg is cheapest able.
        assert by_route["cached"]["would_attempt"] is False
        assert by_route["learned"]["planned"] is False
        assert "no ready snippets" in by_route["learned"]["reason"]
        online = by_route["online_agg"]
        assert online["planned"] and online["would_attempt"]
        assert online["estimated_seconds"] > 0
        assert online["estimated_rows"] > 0
        assert 0 < online["estimated_error"] < 1
        exact = by_route["exact"]
        assert exact["estimated_error"] == 0.0
        assert exact["estimated_rows"] >= online["estimated_rows"]
        assert plan["chosen_route"] == "online_agg"
        inputs = plan["cost_model_inputs"]
        assert inputs["estimated_exact_rows"] == 3_000
        assert inputs["synopsis_snippets_for_table"] == 0

    def test_exact_budget_plans_only_exact(self, service):
        plan = service.explain(SQL, budget=ServiceBudget.exact())
        assert plan["budget"]["requires_exact"] is True
        assert plan["chosen_route"] == "exact"
        by_route = {candidate["route"]: candidate for candidate in plan["candidates"]}
        assert by_route["online_agg"]["planned"] is False
        assert by_route["online_agg"]["reason"] == "budget demands an exact answer"
        learned = by_route["learned"]
        assert learned["reason"] == "budget demands an exact answer"
        assert by_route["exact"]["estimated_error"] == 0.0

    def test_open_breaker_reports_skip(self, service):
        breaker = service._breakers[Route.ONLINE_AGG]
        for _ in range(breaker.window):  # fill the window with failures
            breaker.record_failure()
        plan = service.explain(SQL, budget=ServiceBudget.interactive())
        online = next(
            candidate
            for candidate in plan["candidates"]
            if candidate["route"] == "online_agg"
        )
        assert online["breaker"]["state"] == "open"
        assert online["would_attempt"] is False
        assert "circuit breaker open" in online["skip_reason"]
        assert plan["chosen_route"] == "exact"

    def test_half_open_breaker_with_its_probe_taken_reports_skip(self, service):
        """A half-open breaker whose one probe slot is in flight rejects the
        next attempt: EXPLAIN must say so, and query must agree."""
        clock = [0.0]
        breaker = CircuitBreaker(
            name=Route.ONLINE_AGG.value, window=1, cooldown_s=1.0, clock=lambda: clock[0]
        )
        service._breakers[Route.ONLINE_AGG] = breaker
        breaker.record_failure()  # window of one: open
        clock[0] = 2.0  # past the cooldown: half-open
        assert breaker.allow()  # an in-flight request holds the probe slot
        budget = ServiceBudget.interactive()
        plan = service.explain(SQL, budget=budget)
        online = next(
            candidate
            for candidate in plan["candidates"]
            if candidate["route"] == "online_agg"
        )
        assert online["breaker"]["state"] == "half_open"
        assert online["would_attempt"] is False
        assert "half-open" in online["skip_reason"]
        assert plan["chosen_route"] == "exact"
        assert "deadline" not in plan
        answer = service.query(SQL, budget=budget, record=False)
        assert answer.route.value == plan["chosen_route"]

    def test_cache_hit_reported(self, service):
        budget = ServiceBudget.interactive()
        service.query(SQL, budget=budget)
        plan = service.explain(SQL, budget=budget)
        assert plan["cache"]["would_hit"] is True
        assert plan["chosen_route"] == "cached"
        cached = plan["candidates"][0]
        assert cached["cached_error_bound"] is not None


BUDGETS = {
    "best_effort": ServiceBudget(),
    "interactive": ServiceBudget.interactive(),
    "exact": ServiceBudget.exact(),
}

TRAINING = [
    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
    for low in (1, 12, 25, 38)
]


class TestAgreesWithQuery:
    @pytest.mark.parametrize("cache", ["miss", "hit"])
    @pytest.mark.parametrize("breaker", ["closed", "open", "half_open_probe_taken"])
    @pytest.mark.parametrize("synopsis", ["cold", "warm"])
    @pytest.mark.parametrize("budget", list(BUDGETS))
    def test_explain_agrees_with_query(self, service, budget, synopsis, breaker, cache):
        """EXPLAIN first, then query: the route EXPLAIN chooses is the one
        served, and a breaker skip gives the reason EXPLAIN gave."""
        budget = BUDGETS[budget]
        if synopsis == "warm":
            for sql in TRAINING:
                service.record_answer(sql)
            service.train()
        if cache == "hit":
            service.query(SQL, budget=budget, record=False)
        # Put the breaker in front of the first sampled route query tries.
        first = Route.LEARNED if synopsis == "warm" else Route.ONLINE_AGG
        clock = [0.0]
        tripped = CircuitBreaker(
            name=first.value, window=1, cooldown_s=10.0, clock=lambda: clock[0]
        )
        service._breakers[first] = tripped
        if breaker != "closed":
            tripped.record_failure()  # window of one: open
        if breaker == "half_open_probe_taken":
            clock[0] = 20.0  # past the cooldown: half-open
            assert tripped.allow()  # an in-flight request holds the probe slot

        plan = service.explain(SQL, budget=budget)
        root = Span("request")
        answer = service.query(SQL, budget=budget, record=False, span=root)

        assert answer.route.value == plan["chosen_route"]
        skip_reasons = {
            candidate["route"]: candidate.get("skip_reason")
            for candidate in plan["candidates"]
        }
        breaker_skips = [
            span.attrs
            for span in root.children
            if span.name == "route.skip" and "breaker" in span.attrs["reason"]
        ]
        for skip in breaker_skips:
            assert skip["reason"] == skip_reasons[skip["route"]]
        if breaker != "closed" and cache == "miss" and not budget.requires_exact:
            assert [skip["route"] for skip in breaker_skips] == [first.value]


class TestNoPerturbation:
    def test_explain_executes_nothing(self, service):
        before_scans = service.scan_counters.snapshot()["scans"]
        service.explain(SQL, budget=ServiceBudget.interactive())
        service.explain(SQL, budget=ServiceBudget.exact())
        assert service.metrics.requests() == 0
        assert service.scan_counters.snapshot()["scans"] == before_scans
        assert service.cache_size() == 0

    def test_explain_does_not_touch_lru_order(self, service):
        budget = ServiceBudget.interactive()
        queries = [
            f"SELECT AVG(revenue) FROM sales WHERE week <= {week}"
            for week in (10, 20, 30, 40)
        ]
        # record=False: recording would bump the synopsis version and make
        # every earlier cache entry stale, hiding the LRU behaviour.
        for sql in queries:  # fill the 4-entry cache, oldest first
            service.query(sql, budget=budget, record=False)
        # EXPLAIN the oldest entry: a lookup would promote it in the LRU.
        plan = service.explain(queries[0], budget=budget)
        assert plan["cache"]["would_hit"] is True
        # One more distinct query evicts the true LRU entry: still queries[0].
        service.query(SQL, budget=budget, record=False)
        assert service.explain(queries[0], budget=budget)["cache"]["would_hit"] is False
        assert service.explain(queries[1], budget=budget)["cache"]["would_hit"] is True

    def test_explain_never_calls_breaker_allow(self, service, monkeypatch):
        """allow() consumes half-open probe slots; EXPLAIN must never call it."""
        for breaker in service._breakers.values():
            monkeypatch.setattr(
                breaker,
                "allow",
                lambda: pytest.fail("explain consumed a breaker probe"),
            )
        service.explain(SQL, budget=ServiceBudget.interactive())
