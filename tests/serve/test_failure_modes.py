"""End-to-end failure hardening of :class:`VerdictService`.

Each test installs a fault plan (:mod:`repro.faults`) and asserts the
serving layer's contract under that failure: a broken route falls back
instead of surfacing a 500, a tripped breaker skips the broken route and
reports itself in :meth:`health`, an expired deadline yields either a
*degraded* partial estimate or a typed :class:`DeadlineExceeded`, a crashed
trainer restarts with backoff (and is declared dead only when restarts are
exhausted), and a failed periodic flush never fails the request that
triggered it.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.config import SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.errors import DeadlineExceeded, FaultInjectedError
from repro.faults import FaultPlan, FaultRule
from repro.serve import ServiceBudget, SynopsisStore, VerdictService
from repro.serve.breaker import OPEN
from repro.serve.planner import Route
from repro.workloads.synthetic import make_sales_table

SAMPLING = SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
CONFIG = VerdictConfig(learn_length_scales=False)

INGEST_SQL = [
    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
    for low in (1, 12, 25, 38)
]


def build_service(num_rows: int = 3_000, store=None, **kwargs) -> VerdictService:
    table = make_sales_table(num_rows=num_rows, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    return VerdictService(
        catalog, store=store, sampling=SAMPLING, config=CONFIG, **kwargs
    )


def trained_service(**kwargs) -> VerdictService:
    service = build_service(**kwargs)
    for sql in INGEST_SQL:
        service.record_answer(sql)
    service.train()
    return service


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


def install(*rules: FaultRule) -> FaultPlan:
    return faults.install(FaultPlan(list(rules)))


class TestRouteFallback:
    def test_learned_route_failure_falls_back_to_an_answer(self):
        with trained_service(record_queries=False) as service:
            install(FaultRule(point="service.route.learned", action="error"))
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33",
                budget=ServiceBudget.interactive(0.5),
            )
            assert answer.route in (Route.ONLINE_AGG, Route.EXACT)
            assert answer.rows, "the fallback must still produce an answer"
            assert service.metrics.event_count("route.learned.error") == 1

    def test_every_approximate_route_failing_still_answers_exactly(self):
        with trained_service(record_queries=False) as service:
            install(
                FaultRule(point="service.route.learned", action="error"),
                FaultRule(point="service.route.online_agg", action="error"),
            )
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33",
                budget=ServiceBudget.interactive(0.5),
            )
            assert answer.route is Route.EXACT
            assert answer.relative_error_bound == 0.0

    def test_persistent_failures_trip_the_breaker(self):
        with trained_service(
            record_queries=False, breaker_window=2, breaker_cooldown_s=60.0
        ) as service:
            install(FaultRule(point="service.route.learned", action="error"))
            for low in (2, 9, 16):  # distinct queries: no cache interference
                service.query(
                    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 20}",
                    budget=ServiceBudget.interactive(0.5),
                )
            breaker = service._breakers[Route.LEARNED]
            assert breaker.state == OPEN
            # The third request was shed by the breaker, not executed+failed.
            assert service.metrics.event_count("route.learned.error") == 2
            assert service.metrics.event_count("breaker.learned.skip") == 1
            assert service.metrics.event_count("breaker.learned.open") == 1

            health = service.health()
            assert health["status"] == "degraded"
            assert any("learned route breaker" in reason for reason in health["reasons"])


class TestDeadlines:
    def test_exact_query_with_expired_deadline_raises_typed_error(self):
        with build_service(record_queries=False) as service:
            budget = ServiceBudget(max_relative_error=0.0, deadline_s=1e-6)
            with pytest.raises(DeadlineExceeded):
                service.query(
                    "SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 52",
                    budget=budget,
                )
            assert service.metrics.event_count("deadline.exceeded") == 1

    @pytest.mark.parametrize(
        ("make_service", "max_relative_error", "route"),
        [
            (build_service, 0.07, Route.ONLINE_AGG),
            (trained_service, 0.045, Route.LEARNED),
        ],
        ids=["online_agg", "learned"],
    )
    def test_deadline_mid_refinement_returns_a_degraded_partial(
        self, make_service, max_relative_error, route
    ):
        with make_service(record_queries=False) as service:
            # Each target is *between* the route's batch-1 bound (~0.108 raw,
            # ~0.050 improved) and what the full sample can provably achieve
            # (half of it), so refinement must continue past batch 1 --
            # where the injected stall burns the whole deadline.  The
            # estimate in hand when it expires is served, flagged degraded.
            install(
                FaultRule(point="aqp.batch", action="delay", after=2, delay_s=0.5)
            )
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 40",
                budget=ServiceBudget(
                    max_relative_error=max_relative_error, deadline_s=0.2
                ),
            )
            assert answer.route is route
            assert answer.degraded
            assert answer.degraded_reason
            assert not answer.budget_met
            assert answer.rows, "a degraded answer is still an answer"
            assert answer.batches_processed >= 1

    def test_degraded_answers_are_never_cached(self):
        sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 40"
        with build_service(record_queries=False) as service:
            install(
                FaultRule(point="aqp.batch", action="delay", after=2, delay_s=0.5)
            )
            degraded = service.query(
                sql, budget=ServiceBudget(max_relative_error=0.07, deadline_s=0.2)
            )
            assert degraded.degraded
            faults.clear()
            again = service.query(sql, budget=ServiceBudget.interactive(0.5))
            assert not again.from_cache
            assert not again.degraded


class TestTrainerRestarts:
    def test_one_crash_is_retried_and_succeeds(self):
        with trained_service(trainer_restart_backoff_s=0.01) as service:
            install(FaultRule(point="service.train", action="error", times=1))
            service.train_async().result(timeout=60)
            assert service.trainer_restarts == 1
            assert service.metrics.event_count("trainer.restart") == 1
            assert service.health()["status"] == "ok"

    def test_exhausted_restarts_declare_the_trainer_dead(self):
        with trained_service(
            trainer_max_restarts=1, trainer_restart_backoff_s=0.01
        ) as service:
            install(FaultRule(point="service.train", action="error"))
            with pytest.raises(FaultInjectedError):
                service.train_async().result(timeout=60)
            assert service.metrics.event_count("trainer.dead") == 1
            health = service.health()
            assert health["status"] == "degraded"
            assert any("trainer dead" in reason for reason in health["reasons"])

            # A later successful round revives it.
            faults.clear()
            service.train_async().result(timeout=60)
            assert service.health()["status"] == "ok"


class TestFlushFailures:
    def test_failed_periodic_flush_does_not_fail_the_request(self, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        with build_service(store=store, flush_every=1) as service:
            install(FaultRule(point="service.flush", action="error"))
            assert service.record_answer(INGEST_SQL[0]) is True
            assert service.metrics.event_count("flush.error") >= 1
            faults.clear()
            # The state stayed dirty; the next mutation persists it.
            assert service.record_answer(INGEST_SQL[1]) is True
            assert store.snapshots_written + store.deltas_written >= 1


class TestObservability:
    def test_observability_reports_breakers_trainer_and_store(self, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        with build_service(store=store, flush_every=1) as service:
            service.record_answer(INGEST_SQL[0])
            report = service.observability()
            assert report["breakers"]["learned"]["state"] == "closed"
            assert report["breakers"]["online_agg"]["state"] == "closed"
            assert report["trainer"] == {"restarts": 0, "dead": False}
            assert report["store"]["snapshots_written"] >= 1
            assert "events" in report
