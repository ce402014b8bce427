"""Property tests: governor conservation invariants under concurrency.

Three invariants, each driven by hypothesis-randomized schedules:

* **token conservation** -- a bucket's cumulative ``spent`` equals the sum
  of every granted charge exactly, and the level never leaves
  ``[0, capacity]``, even under concurrent acquires racing refills;
* **admission outcome conservation** -- every ``admit`` gets exactly one
  terminal outcome (completed or shed), per-tenant active gauges return to
  zero, and the counters agree with the callers' tally;
* **cancel delivery** -- racing ``POST /v1/cancel`` deliveries against
  request completion, every cancel call terminates with exactly one of
  found/unknown, a token is never delivered twice, and the registry ends
  empty.
"""

from __future__ import annotations

import threading

from hypothesis import example, given, settings, strategies as st

from repro.deadline import CancelToken
from repro.serve.governor import CancelRegistry, ResourceGovernor, TokenBucket
from repro.serve.http.admission import ShedLoad


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.floats(0.5, 16.0),
    refill=st.floats(0.1, 8.0),
    costs=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40),
    advances=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40),
)
# A subnormal deficit whose refill wait once rounded to 0.0 on a denial.
@example(capacity=1.0, refill=2.0, costs=[1.0, 5e-324], advances=[0.0])
def test_token_conservation_sequential(capacity, refill, costs, advances):
    now = [0.0]
    bucket = TokenBucket(capacity, refill, clock=lambda: now[0])
    granted_total = 0.0
    granted_count = 0
    for index, cost in enumerate(costs):
        ok, remaining, wait = bucket.try_acquire(cost)
        charge = min(cost, capacity)
        if ok:
            granted_total += charge
            granted_count += 1
            assert wait == 0.0
        else:
            assert wait > 0.0
        assert -1e-9 <= remaining <= capacity + 1e-9
        now[0] += advances[index % len(advances)]
    assert abs(bucket.spent - granted_total) < 1e-6
    assert bucket.granted == granted_count
    assert bucket.granted + bucket.denied == len(costs)


@settings(max_examples=15, deadline=None)
@given(
    capacity=st.floats(1.0, 8.0),
    refill=st.floats(0.5, 4.0),
    num_threads=st.integers(2, 8),
    per_thread=st.integers(1, 10),
    cost=st.floats(0.1, 3.0),
)
def test_token_conservation_concurrent(capacity, refill, num_threads, per_thread, cost):
    bucket = TokenBucket(capacity, refill)  # real clock: refills race acquires
    granted = []
    lock = threading.Lock()

    def worker() -> None:
        for _ in range(per_thread):
            ok, remaining, _ = bucket.try_acquire(cost)
            assert -1e-9 <= remaining <= capacity + 1e-9
            if ok:
                with lock:
                    granted.append(min(cost, capacity))

    threads = [threading.Thread(target=worker) for _ in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert abs(bucket.spent - sum(granted)) < 1e-6
    assert bucket.granted == len(granted)
    assert bucket.granted + bucket.denied == num_threads * per_thread


@settings(max_examples=15, deadline=None)
@given(
    tenant_concurrency=st.integers(1, 3),
    qps=st.one_of(st.none(), st.floats(5.0, 50.0)),
    num_threads=st.integers(1, 12),
    tenants=st.integers(1, 3),
)
def test_admission_outcome_conservation(tenant_concurrency, qps, num_threads, tenants):
    governor = ResourceGovernor(
        tenant_qps=qps, tenant_concurrency=tenant_concurrency, burst_s=1.0
    )
    outcomes: list[str] = []
    lock = threading.Lock()
    release = threading.Event()

    def request(index: int) -> None:
        tenant = f"t{index % tenants}"
        try:
            with governor.admit(tenant, cost=1.0):
                release.wait(0.01)
            outcome = "done"
        except ShedLoad:
            outcome = "shed"
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=request, args=(index,)) for index in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    release.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive(), "admit hung"
    # Exactly one terminal outcome per arrival, callers and counters agree.
    assert len(outcomes) == num_threads
    snapshot = governor.snapshot()
    admitted = sum(state["admitted"] for state in snapshot["tenants"].values())
    shed = sum(
        state["shed_tokens"] + state["shed_concurrency"]
        for state in snapshot["tenants"].values()
    )
    assert admitted == outcomes.count("done")
    assert shed == outcomes.count("shed")
    assert admitted + shed == num_threads
    # Every slot was released: no tenant is still marked active.
    assert all(state["active"] == 0 for state in snapshot["tenants"].values())


@settings(max_examples=15, deadline=None)
@given(
    num_requests=st.integers(1, 10),
    num_cancellers=st.integers(1, 4),
    cancel_targets=st.lists(st.integers(0, 12), min_size=1, max_size=20),
)
def test_cancel_delivery_conservation(num_requests, num_cancellers, cancel_targets):
    registry = CancelRegistry()
    tokens = [CancelToken() for _ in range(num_requests)]
    started = threading.Barrier(num_requests + num_cancellers)
    finish = threading.Event()

    def request(index: int) -> None:
        with registry.track(f"req-{index}", tokens[index], f"tenant-{index}"):
            started.wait(timeout=30)
            finish.wait(timeout=30)

    def canceller() -> None:
        started.wait(timeout=30)
        for target in cancel_targets:
            found, tenant = registry.cancel(f"req-{target}")
            if found:
                assert tenant == f"tenant-{target}"
                assert target < num_requests

    threads = [
        threading.Thread(target=request, args=(index,))
        for index in range(num_requests)
    ] + [threading.Thread(target=canceller) for _ in range(num_cancellers)]
    for thread in threads:
        thread.start()
    finish.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    # Every cancel call terminated with exactly one outcome; a token is
    # never delivered more than once no matter how many cancellers raced.
    total_calls = num_cancellers * len(cancel_targets)
    assert registry.requested == total_calls
    assert registry.delivered + registry.unknown <= total_calls
    assert registry.delivered <= num_requests
    assert registry.in_flight() == 0
    delivered = sum(1 for token in tokens if token.cancelled)
    assert delivered == registry.delivered
