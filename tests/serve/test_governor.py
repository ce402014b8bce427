"""Unit tests for per-tenant resource governance and brownout.

Everything here runs against fake clocks: token-bucket refill, shed
pricing, and the brownout saturation detector's window arithmetic are all
deterministic functions of injected time, so no test sleeps.
"""

from __future__ import annotations

import pytest

from repro.serve.governor import (
    BrownoutController,
    CancelRegistry,
    ResourceGovernor,
    TokenBucket,
)
from repro.deadline import CancelToken
from repro.errors import QueryCancelled
from repro.serve.http.admission import ShedLoad
from repro.serve.planner import ServiceBudget


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# TokenBucket
# --------------------------------------------------------------------------- #


class TestTokenBucket:
    def test_starts_full_and_spends_exactly(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=10.0, refill_per_s=5.0, clock=clock)
        ok, remaining, wait = bucket.try_acquire(3.0)
        assert ok and wait == 0.0
        assert remaining == pytest.approx(7.0)
        assert bucket.spent == pytest.approx(3.0)
        assert bucket.granted == 1 and bucket.denied == 0

    def test_denied_reports_refill_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=4.0, refill_per_s=2.0, clock=clock)
        assert bucket.try_acquire(4.0)[0]
        ok, remaining, wait = bucket.try_acquire(1.0)
        assert not ok
        assert remaining == pytest.approx(0.0)
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        assert bucket.denied == 1

    def test_refills_continuously_and_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=4.0, refill_per_s=2.0, clock=clock)
        bucket.try_acquire(4.0)
        clock.advance(1.0)
        assert bucket.remaining == pytest.approx(2.0)
        clock.advance(100.0)
        assert bucket.remaining == pytest.approx(4.0)

    def test_oversized_cost_is_clamped_to_capacity(self):
        # A request priced above the whole bucket must still be servable:
        # it drains the full bucket rather than waiting forever.
        clock = FakeClock()
        bucket = TokenBucket(capacity=4.0, refill_per_s=2.0, clock=clock)
        ok, remaining, wait = bucket.try_acquire(100.0)
        assert ok and wait == 0.0
        assert remaining == pytest.approx(0.0)
        assert bucket.spent == pytest.approx(4.0)
        # And when empty, the wait is the full-capacity refill, not 50s.
        ok, _, wait = bucket.try_acquire(100.0)
        assert not ok
        assert wait == pytest.approx(2.0)

    def test_conservation_spent_equals_sum_of_granted_charges(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=8.0, refill_per_s=4.0, clock=clock)
        charged = 0.0
        for step, cost in enumerate([1.0, 3.5, 9.0, 2.0, 0.5, 7.0]):
            ok, remaining, _ = bucket.try_acquire(cost)
            if ok:
                charged += min(cost, bucket.capacity)
            assert 0.0 <= remaining <= bucket.capacity
            clock.advance(0.25 * step)
        assert bucket.spent == pytest.approx(charged)

    def test_credit_returns_tokens_capped(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=4.0, refill_per_s=2.0, clock=clock)
        bucket.try_acquire(3.0)
        bucket.credit(100.0)
        assert bucket.remaining == pytest.approx(4.0)
        assert bucket.spent == pytest.approx(0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0.0, refill_per_s=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1.0, refill_per_s=0.0)
        bucket = TokenBucket(capacity=1.0, refill_per_s=1.0)
        with pytest.raises(ValueError):
            bucket.try_acquire(-1.0)


# --------------------------------------------------------------------------- #
# ResourceGovernor
# --------------------------------------------------------------------------- #


class TestResourceGovernor:
    def test_unconfigured_governor_admits_everything(self):
        governor = ResourceGovernor()
        assert not governor.enabled
        for _ in range(50):
            with governor.admit("acme", cost=100.0):
                pass
        snapshot = governor.snapshot()
        assert snapshot["tenants"]["acme"]["admitted"] == 50
        assert snapshot["tenants"]["acme"]["shed_tokens"] == 0

    def test_quota_shed_carries_state_and_refill_retry_after(self):
        clock = FakeClock()
        governor = ResourceGovernor(tenant_qps=1.0, burst_s=2.0, clock=clock)
        with governor.admit("acme", cost=2.0):
            pass  # drains the 2-token bucket
        with pytest.raises(ShedLoad) as excinfo:
            with governor.admit("acme", cost=1.0):
                pytest.fail("over-quota admit must not run")
        shed = excinfo.value
        # Retry-After comes from the bucket refill (1 token at 1/s), not
        # any global queue horizon.
        assert shed.retry_after_s == pytest.approx(1.0)
        assert shed.quota["remaining_tokens"] == pytest.approx(0.0)
        assert shed.quota["capacity_tokens"] == pytest.approx(2.0)
        assert shed.quota["refill_s"] == pytest.approx(1.0)
        assert governor.snapshot()["tenants"]["acme"]["shed_tokens"] == 1

    def test_quota_recovers_after_refill(self):
        clock = FakeClock()
        governor = ResourceGovernor(tenant_qps=1.0, burst_s=2.0, clock=clock)
        with governor.admit("acme", cost=2.0):
            pass
        with pytest.raises(ShedLoad):
            governor.admit("acme", cost=1.0).__enter__()
        clock.advance(1.5)
        with governor.admit("acme", cost=1.0):
            pass

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        governor = ResourceGovernor(tenant_qps=1.0, burst_s=1.0, clock=clock)
        with governor.admit("hog", cost=1.0):
            pass
        with pytest.raises(ShedLoad):
            governor.admit("hog", cost=1.0).__enter__()
        # The other tenant's bucket is untouched.
        with governor.admit("meek", cost=1.0):
            pass

    def test_concurrency_cap_sheds_and_releases(self):
        governor = ResourceGovernor(tenant_concurrency=1)
        gate = governor.admit("acme", cost=1.0)
        gate.__enter__()
        try:
            with pytest.raises(ShedLoad) as excinfo:
                governor.admit("acme", cost=1.0).__enter__()
            assert "concurrency cap" in str(excinfo.value)
            assert excinfo.value.quota["active"] == 1
        finally:
            gate.__exit__(None, None, None)
        with governor.admit("acme", cost=1.0):
            pass  # slot freed
        snapshot = governor.snapshot()["tenants"]["acme"]
        assert snapshot["shed_concurrency"] == 1
        assert snapshot["active"] == 0

    def test_slot_is_released_when_the_body_raises(self):
        governor = ResourceGovernor(tenant_concurrency=1)
        with pytest.raises(RuntimeError):
            with governor.admit("acme", cost=1.0):
                raise RuntimeError("boom")
        assert governor.snapshot()["tenants"]["acme"]["active"] == 0

    def test_pricing_scales_with_estimated_seconds(self):
        governor = ResourceGovernor(cost_unit_s=0.1)
        assert governor.price(0.0) == pytest.approx(1.0)
        assert governor.price(1.0) == pytest.approx(11.0)
        assert governor.price(-5.0) == pytest.approx(1.0)

    def test_price_query_uses_exact_estimate_only_when_required(self):
        class Planner:
            def estimated_exact_seconds(self, parsed):
                return 2.0

            def estimated_first_batch_seconds(self, parsed):
                return 0.05

        governor = ResourceGovernor(cost_unit_s=0.1)
        exact = governor.price_query(Planner(), None, ServiceBudget.exact())
        cheap = governor.price_query(
            Planner(), None, ServiceBudget(max_relative_error=0.05)
        )
        assert exact == pytest.approx(21.0)
        assert cheap == pytest.approx(1.5)
        assert exact > 10 * cheap  # the starvation protection

    def test_unpriceable_query_costs_the_base_token(self):
        class BrokenPlanner:
            def estimated_exact_seconds(self, parsed):
                raise KeyError("unknown table")

            def estimated_first_batch_seconds(self, parsed):
                raise KeyError("unknown table")

        governor = ResourceGovernor(cost_unit_s=0.1)
        assert governor.price_query(
            BrokenPlanner(), None, ServiceBudget.exact()
        ) == pytest.approx(1.0)

    def test_metric_families_cover_every_outcome(self):
        clock = FakeClock()
        governor = ResourceGovernor(tenant_qps=1.0, burst_s=1.0, clock=clock)
        with governor.admit("acme", cost=1.0):
            pass
        with pytest.raises(ShedLoad):
            governor.admit("acme", cost=1.0).__enter__()
        governor.record_cancel("acme", "requested")
        families = {metric.name: metric for metric in governor.registry.metrics}
        assert set(families) == {
            "verdict_governor_outcomes_total",
            "verdict_governor_tokens_spent_total",
            "verdict_governor_tokens_remaining",
            "verdict_governor_active",
            "verdict_governor_cancels_total",
            "verdict_cancel_requests_total",
        }
        outcomes = families["verdict_governor_outcomes_total"].series()
        assert outcomes[("acme", "admitted")] == 1
        assert outcomes[("acme", "shed_tokens")] == 1
        assert outcomes[("acme", "shed_concurrency")] == 0
        cancels = families["verdict_governor_cancels_total"].series()
        assert cancels == {("acme", "requested"): 1}

    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"tenant_qps": 0.0},
            {"tenant_concurrency": 0},
            {"burst_s": 0.0},
            {"cost_unit_s": 0.0},
        ):
            with pytest.raises(ValueError):
                ResourceGovernor(**kwargs)


class TestCancelRegistry:
    def test_cancel_arms_a_tracked_token_exactly_once(self):
        registry = CancelRegistry()
        token = CancelToken()
        with registry.track("req-1", token, "acme"):
            found, tenant = registry.cancel("req-1")
            assert found and tenant == "acme"
            assert token.cancelled and token.reason == "requested"
            # Repeats are idempotent: found again, not delivered again.
            assert registry.cancel("req-1") == (True, "acme")
        assert registry.requested == 2
        assert registry.delivered == 1
        with pytest.raises(QueryCancelled):
            token.check("test")

    def test_unknown_and_finished_requests_are_not_found(self):
        registry = CancelRegistry()
        assert registry.cancel("never-seen") == (False, "")
        token = CancelToken()
        with registry.track("req-1", token, "acme"):
            pass
        assert registry.cancel("req-1") == (False, "")
        assert registry.unknown == 2
        assert registry.in_flight() == 0

    def test_track_unregisters_even_on_error(self):
        registry = CancelRegistry()
        with pytest.raises(RuntimeError):
            with registry.track("req-1", CancelToken(), "acme"):
                raise RuntimeError("boom")
        assert registry.in_flight() == 0


# --------------------------------------------------------------------------- #
# BrownoutController
# --------------------------------------------------------------------------- #


def make_brownout(clock, **kwargs) -> BrownoutController:
    kwargs.setdefault("threshold_s", 0.5)
    kwargs.setdefault("window_s", 1.0)
    kwargs.setdefault("saturated_windows", 2)
    kwargs.setdefault("healthy_windows", 2)
    return BrownoutController(clock=clock, **kwargs)


def saturate_windows(brownout, clock, count: int, wait_s: float = 2.0) -> None:
    """Feed ``count`` consecutive saturated windows."""
    for _ in range(count):
        brownout.observe(wait_s)
        clock.advance(brownout.window_s)
        brownout.tick()


def idle_windows(brownout, clock, count: int) -> None:
    for _ in range(count):
        clock.advance(brownout.window_s)
        brownout.tick()


class TestBrownoutController:
    def test_escalates_after_consecutive_saturated_windows(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 1)
        assert brownout.level == 0  # one window is not a trend
        saturate_windows(brownout, clock, 1)
        assert brownout.level == 1
        assert brownout.snapshot()["escalations"] == 1
        saturate_windows(brownout, clock, 2)
        assert brownout.level == 2

    def test_a_healthy_window_resets_the_saturated_streak(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 1)
        idle_windows(brownout, clock, 1)  # empty window = healthy
        saturate_windows(brownout, clock, 1)
        assert brownout.level == 0  # never two in a row

    def test_deescalates_after_consecutive_healthy_windows(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 4)
        assert brownout.level == 2
        idle_windows(brownout, clock, 2)
        assert brownout.level == 1
        idle_windows(brownout, clock, 2)
        assert brownout.level == 0
        assert brownout.snapshot()["deescalations"] == 2

    def test_level_is_capped_at_max_level(self):
        clock = FakeClock()
        brownout = make_brownout(clock, max_level=2)
        saturate_windows(brownout, clock, 20)
        assert brownout.level == 2

    def test_p99_is_nearest_rank_not_mean(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        # 99 fast observations and one slow one: p99 picks the 99th of 100
        # sorted samples (0.0), so a single outlier does not saturate.
        for _ in range(99):
            brownout.observe(0.0)
        brownout.observe(10.0)
        clock.advance(1.0)
        brownout.tick()
        assert brownout.last_p99 == pytest.approx(0.0)
        assert brownout.snapshot()["windows_saturated"] == 0

    def test_long_idle_gap_recovers_in_one_tick(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 4)
        assert brownout.level == 2
        clock.advance(3600.0)  # an idle hour
        brownout.tick()
        assert brownout.level == 0
        # The bulk fast-forward accounted the gap as healthy windows.
        assert brownout.snapshot()["windows_healthy"] > 100

    def test_effective_budget_widens_relative_error(self):
        clock = FakeClock()
        brownout = make_brownout(clock, widen_factor=2.0)
        budget = ServiceBudget(max_relative_error=0.02, max_latency_s=3.0)
        assert brownout.effective_budget(budget) is budget  # level 0
        saturate_windows(brownout, clock, 2)
        widened = brownout.effective_budget(budget)
        assert widened.max_relative_error == pytest.approx(0.04)
        assert widened.max_latency_s == 3.0  # only the error budget moves

    def test_exact_requirement_survives_shallow_brownout(self):
        clock = FakeClock()
        brownout = make_brownout(clock, exact_relax_level=2)
        saturate_windows(brownout, clock, 2)
        assert brownout.level == 1
        exact = ServiceBudget.exact()
        assert brownout.effective_budget(exact) is exact

    def test_exact_requirement_relaxed_at_deep_brownout(self):
        clock = FakeClock()
        brownout = make_brownout(clock, exact_relax_level=2, exact_floor=0.02)
        saturate_windows(brownout, clock, 4)
        assert brownout.level == 2
        relaxed = brownout.effective_budget(ServiceBudget.exact())
        assert relaxed.max_relative_error == pytest.approx(0.02)
        saturate_windows(brownout, clock, 2)
        assert brownout.level == 3
        deeper = brownout.effective_budget(ServiceBudget.exact())
        assert deeper.max_relative_error == pytest.approx(0.04)

    def test_best_effort_budget_passes_through(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 4)
        budget = ServiceBudget(max_latency_s=1.0)
        assert brownout.effective_budget(budget) is budget

    def test_metric_families_and_snapshot(self):
        clock = FakeClock()
        brownout = make_brownout(clock)
        saturate_windows(brownout, clock, 2)
        names = [metric.name for metric in brownout.registry.metrics]
        assert names == [
            "verdict_brownout_level",
            "verdict_brownout_transitions_total",
            "verdict_brownout_windows_total",
            "verdict_brownout_queue_wait_p99_seconds",
        ]
        snapshot = brownout.snapshot()
        assert snapshot["level"] == 1
        assert snapshot["escalations"] == 1
        assert snapshot["windows_saturated"] == 2

    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"threshold_s": 0.0},
            {"window_s": 0.0},
            {"saturated_windows": 0},
            {"healthy_windows": 0},
            {"max_level": 0},
            {"widen_factor": 1.0},
            {"exact_relax_level": 9},
            {"exact_floor": 0.0},
        ):
            with pytest.raises(ValueError):
                make_brownout(FakeClock(), **kwargs)
