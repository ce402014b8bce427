"""Route-planning tests: budgets, preference order, and cost estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.core.engine import VerdictEngine
from repro.db.catalog import Catalog
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    key,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.errors import ServiceError
from repro.obs.trace import Span
from repro.serve import VerdictService
from repro.serve.planner import QueryPlanner, Route, ServiceBudget
from repro.workloads.synthetic import make_sales_table


@pytest.fixture()
def planner_setup():
    table = make_sales_table(num_rows=2_000, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    aqp = OnlineAggregationEngine(
        catalog, sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
    )
    engine = VerdictEngine(catalog, aqp, config=VerdictConfig(learn_length_scales=False))
    return engine, QueryPlanner(engine)


def plan_routes(planner, engine, sql, budget):
    parsed, check = engine.check(sql)
    return [d.route for d in planner.plan(parsed, check, budget)]


class TestServiceBudget:
    def test_exact_budget(self):
        budget = ServiceBudget.exact()
        assert budget.requires_exact
        assert budget.error_met(0.0)
        assert not budget.error_met(0.001)

    def test_interactive_budget(self):
        budget = ServiceBudget.interactive(0.05)
        assert not budget.requires_exact
        assert budget.error_met(0.04)
        assert not budget.error_met(0.06)

    def test_no_error_budget_accepts_anything(self):
        assert ServiceBudget().error_met(10.0)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ServiceError):
            ServiceBudget(max_relative_error=-0.1)
        with pytest.raises(ServiceError):
            ServiceBudget(max_latency_s=0.0)


class TestRoutePlanning:
    def test_exact_budget_plans_exact_only(self, planner_setup):
        engine, planner = planner_setup
        routes = plan_routes(
            planner, engine, "SELECT COUNT(*) FROM sales", ServiceBudget.exact()
        )
        assert routes == [Route.EXACT]

    def test_cold_synopsis_plans_online_agg_then_exact(self, planner_setup):
        engine, planner = planner_setup
        routes = plan_routes(
            planner,
            engine,
            "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
            ServiceBudget.interactive(0.1),
        )
        assert routes == [Route.ONLINE_AGG, Route.EXACT]

    def test_warm_synopsis_plans_learned_first(self, planner_setup):
        engine, planner = planner_setup
        for low in (1, 15, 30):
            sql = f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
            parsed, _ = engine.check(sql)
            engine.record(parsed, engine.aqp.final_answer(parsed))
        routes = plan_routes(
            planner,
            engine,
            "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 40",
            ServiceBudget.interactive(0.1),
        )
        # Online aggregation stays planned as the inference-error fallback;
        # the service skips it whenever the learned route answered (its
        # improved bound dominates the raw bound, Theorem 1).
        assert routes == [Route.LEARNED, Route.ONLINE_AGG, Route.EXACT]

    def test_unsupported_query_never_plans_learned(self, planner_setup):
        engine, planner = planner_setup
        routes = plan_routes(
            planner,
            engine,
            "SELECT MAX(revenue) FROM sales WHERE week >= 1 AND week <= 20",
            ServiceBudget.interactive(0.1),
        )
        assert Route.LEARNED not in routes
        assert routes[-1] is Route.EXACT

    def test_estimates_order_cheap_to_expensive(self, planner_setup):
        engine, planner = planner_setup
        parsed, check = engine.check(
            "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20"
        )
        decisions = planner.plan(parsed, check, ServiceBudget.interactive(0.1))
        costs = [d.estimated_seconds for d in decisions]
        assert costs == sorted(costs)
        # The exact fallback pays a full-table scan; approximations pay one
        # sample batch.
        assert costs[-1] > costs[0]

    def test_synopsis_snippet_counts_respect_table(self, planner_setup):
        engine, planner = planner_setup
        assert planner.synopsis_snippets_for("sales") == 0
        parsed, _ = engine.check(
            "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 30"
        )
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert planner.synopsis_snippets_for("sales") > 0
        assert planner.synopsis_snippets_for("other_table") == 0


def star_service() -> VerdictService:
    """Orders joined to 40 stores, priced with the SSD-style join penalty."""
    rng = np.random.default_rng(4)
    orders = Table(
        "orders",
        Schema.of(
            [numeric_dimension("day", ColumnKind.INT), key("store_id"), measure("amount")]
        ),
        {
            "day": rng.integers(1, 366, size=2_000),
            "store_id": rng.integers(0, 40, size=2_000),
            "amount": rng.gamma(2.0, 50.0, size=2_000),
        },
    )
    stores = Table(
        "stores",
        Schema.of([key("store_id"), categorical_dimension("region")]),
        {"store_id": list(range(40)), "region": [f"r{i % 4}" for i in range(40)]},
    )
    catalog = Catalog()
    catalog.add_table(orders, fact=True)
    catalog.add_table(stores)
    catalog.add_foreign_key("orders", "store_id", "stores", "store_id")
    return VerdictService(
        catalog,
        sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2),
        config=VerdictConfig(learn_length_scales=False),
        cost_model=CostModelConfig(
            planning_overhead_s=0.35,
            cached_seconds_per_row=1e-4,
            unsampled_table_scan_penalty_s=1.5,
        ),
        record_queries=False,
    )


class TestPredictedEqualsCharged:
    """The planner prices a route with the function the route charges."""

    SQL = (
        "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
        "GROUP BY region"
    )

    @pytest.mark.parametrize(
        "budget, route",
        [(ServiceBudget(), Route.ONLINE_AGG), (ServiceBudget.exact(), Route.EXACT)],
    )
    def test_join_answer_costs_its_estimate(self, budget, route):
        with star_service() as service:
            parsed, check = service.engine.check(self.SQL)
            decision = service.planner.plan(parsed, check, budget)[0]
            assert decision.route is route
            # The join reads 40 dimension rows, so the penalty is priced in.
            assert decision.estimated_seconds > 0.35 + 1.5
            explained = {
                entry["route"]: entry for entry in service.explain(self.SQL, budget)["candidates"]
            }
            root = Span("request")
            answer = service.query(self.SQL, budget, span=root)
        assert answer.route is route
        if route is Route.ONLINE_AGG:
            assert answer.batches_processed == 1
        (route_span,) = [span for span in root.children if span.name == f"route.{route.value}"]
        assert route_span.attrs["predicted_seconds"] == decision.estimated_seconds
        assert route_span.attrs["observed_seconds"] == decision.estimated_seconds
        assert answer.model_seconds == decision.estimated_seconds
        assert explained[route.value]["estimated_seconds"] == decision.estimated_seconds

    def test_learned_one_batch_answer_costs_its_estimate(self):
        """A learned answer serves the cost model's charge alone: the
        inference step's measured time is wall time, not model time."""
        table = make_sales_table(num_rows=3_000, num_weeks=52, seed=9)
        catalog = Catalog()
        catalog.add_table(table, fact=True)
        sql = "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33"
        with VerdictService(
            catalog,
            sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2),
            config=VerdictConfig(learn_length_scales=False),
            record_queries=False,
        ) as service:
            for low in (1, 12, 25, 38):
                service.record_answer(
                    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
                )
            service.train()
            parsed, check = service.engine.check(sql)
            decision = service.planner.plan(parsed, check, ServiceBudget())[0]
            root = Span("request")
            answer = service.query(sql, ServiceBudget(), span=root)
        assert decision.route is Route.LEARNED
        assert answer.route is Route.LEARNED
        assert answer.batches_processed == 1
        assert answer.model_seconds == decision.estimated_seconds
        (route_span,) = [span for span in root.children if span.name == "route.learned"]
        assert route_span.attrs["observed_seconds"] == decision.estimated_seconds

    def test_join_error_proxy_counts_only_sampled_rows(self):
        # The dimension table is read whole, so its 40 rows are not sample
        # rows: the CLT proxy sees the first batch's sample alone.
        with star_service() as service:
            planner = service.planner
            sample_rows = service.engine.aqp.samples.sample_for("orders").rows_after_batches(1)
            expected = planner.multiplier / math.sqrt(sample_rows)
            parsed, check = service.engine.check(self.SQL)
            sampled = [
                decision
                for decision in planner.plan(parsed, check, ServiceBudget())
                if decision.route is not Route.EXACT
            ]
            explained = {
                entry["route"]: entry
                for entry in service.explain(self.SQL, ServiceBudget())["candidates"]
            }
            root = Span("request")
            service.query(self.SQL, ServiceBudget(), span=root)
        assert sampled and all(d.estimated_error == expected for d in sampled)
        assert explained["online_agg"]["estimated_error"] == expected
        (route_span,) = [span for span in root.children if span.name == "route.online_agg"]
        assert route_span.attrs["predicted_error"] == expected
