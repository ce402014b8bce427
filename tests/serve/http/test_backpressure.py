"""Backpressure properties: every request gets exactly one terminal outcome.

The hypothesis properties drive randomized burst schedules straight at
:class:`AdmissionController` (no sockets -- the invariants are the
controller's) and assert:

* **conservation** -- admitted + shed + rejected_closed == arrivals, and
  every admitted request completes;
* **bounds** -- concurrency never exceeds ``max_active`` and the queue
  never exceeds ``max_queued``, even racing a concurrent ``close()``;
* **liveness** -- a client retrying 429s with backoff eventually succeeds
  once load drops.

The last test replays the liveness property over real HTTP: the server's
only execution slot is held hostage, a no-retry client gets 429, and a
retrying client succeeds the moment the slot frees.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.client import SaturatedError, VerdictClient
from repro.serve.http.admission import AdmissionController, ShedLoad, ShuttingDown
from http_harness import start_server

COUNT_SQL = "SELECT COUNT(*) FROM sales"


def run_burst(
    controller: AdmissionController,
    num_requests: int,
    hold_s: float,
    close_after: int | None = None,
) -> dict[str, int]:
    """Fire ``num_requests`` concurrent admits; optionally close mid-burst."""
    outcomes: list[str] = []
    lock = threading.Lock()
    release = threading.Event()

    def request() -> None:
        try:
            with controller.admit():
                if hold_s:
                    release.wait(hold_s)
            outcome = "done"
        except ShedLoad:
            outcome = "shed"
        except ShuttingDown:
            outcome = "closed"
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=request, daemon=True) for _ in range(num_requests)
    ]
    closer = None
    for index, thread in enumerate(threads):
        if close_after is not None and index == close_after:
            closer = threading.Thread(target=controller.close, daemon=True)
            closer.start()
        thread.start()
    release.set()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "request thread hung"
    if closer is not None:
        closer.join(timeout=60)
    counts = {key: outcomes.count(key) for key in ("done", "shed", "closed")}
    counts["total"] = len(outcomes)
    return counts


@settings(max_examples=25, deadline=None)
@given(
    max_active=st.integers(1, 4),
    max_queued=st.integers(0, 6),
    num_requests=st.integers(1, 24),
    hold_ms=st.sampled_from([0, 1, 5]),
)
def test_every_request_gets_exactly_one_outcome(
    max_active, max_queued, num_requests, hold_ms
):
    controller = AdmissionController(
        max_active=max_active, max_queued=max_queued, queue_timeout_s=30.0
    )
    counts = run_burst(controller, num_requests, hold_ms / 1000.0)
    # Conservation: one terminal outcome per arrival, in both the caller's
    # view and the controller's own counters.
    assert counts["total"] == num_requests
    assert counts["done"] + counts["shed"] + counts["closed"] == num_requests
    snapshot = controller.snapshot()
    assert snapshot["admitted"] == counts["done"]
    assert snapshot["completed"] == snapshot["admitted"]
    assert snapshot["shed"] == counts["shed"]
    assert snapshot["rejected_closed"] == 0
    # Bounds: the gauges never exceeded their configured caps.
    assert snapshot["peak_active"] <= max_active
    assert snapshot["peak_queued"] <= max_queued
    assert snapshot["active"] == 0 and snapshot["queued"] == 0
    # With enough capacity nothing is shed at all.
    if num_requests <= max_active:
        assert counts["done"] == num_requests


@settings(max_examples=25, deadline=None)
@given(
    max_active=st.integers(1, 3),
    max_queued=st.integers(0, 4),
    num_requests=st.integers(1, 16),
    close_after=st.integers(0, 16),
)
def test_outcomes_conserved_racing_close(
    max_active, max_queued, num_requests, close_after
):
    controller = AdmissionController(
        max_active=max_active, max_queued=max_queued, queue_timeout_s=30.0
    )
    counts = run_burst(
        controller,
        num_requests,
        hold_s=0.002,
        close_after=min(close_after, num_requests - 1),
    )
    assert counts["total"] == num_requests
    assert counts["done"] + counts["shed"] + counts["closed"] == num_requests
    snapshot = controller.snapshot()
    assert snapshot["completed"] == snapshot["admitted"] == counts["done"]
    assert snapshot["rejected_closed"] == counts["closed"]
    assert snapshot["peak_active"] <= max_active
    assert snapshot["peak_queued"] <= max_queued
    # Everything admitted drained; the controller ends idle and closed.
    assert controller.wait_idle(timeout_s=10.0)
    assert controller.closed


def test_queue_timeout_sheds():
    controller = AdmissionController(max_active=1, max_queued=4, queue_timeout_s=0.05)
    release = threading.Event()

    def occupant() -> None:
        with controller.admit():
            release.wait(10.0)

    holder = threading.Thread(target=occupant, daemon=True)
    holder.start()
    while controller.snapshot()["active"] == 0:
        pass  # wait for the slot to be taken
    with pytest.raises(ShedLoad):
        with controller.admit():
            pytest.fail("queue-timeout admit must not succeed")
    release.set()
    holder.join(timeout=10)
    assert controller.snapshot()["shed"] == 1


def test_retry_with_backoff_eventually_succeeds():
    controller = AdmissionController(max_active=1, max_queued=0, queue_timeout_s=5.0)
    release = threading.Event()
    entered = threading.Event()

    def occupant() -> None:
        with controller.admit():
            entered.set()
            release.wait(30.0)

    holder = threading.Thread(target=occupant, daemon=True)
    holder.start()
    assert entered.wait(timeout=10)

    sheds = 0
    for attempt in range(200):
        try:
            with controller.admit():
                break  # admitted: load dropped and the retry got through
        except ShedLoad:
            sheds += 1
            if sheds == 3:
                release.set()  # load drops after a few rejections
            threading.Event().wait(0.005)
    else:
        pytest.fail("backoff retries never succeeded after load dropped")
    holder.join(timeout=10)
    assert sheds >= 3


def test_retry_after_hints_the_floor_when_there_is_no_queue():
    # With no queue there is nothing to drain: the hint is the 1 s floor,
    # not the 5 s queue timeout.  With a queue it is the drain horizon.
    unqueued = AdmissionController(max_active=1, max_queued=0, queue_timeout_s=5.0)
    with unqueued.admit():
        with pytest.raises(ShedLoad) as excinfo:
            with unqueued.admit():
                pytest.fail("a full unqueued controller must shed")
    assert excinfo.value.retry_after_s == 1.0
    assert unqueued.snapshot()["retry_after_s"] == 1.0
    queued = AdmissionController(max_active=1, max_queued=2, queue_timeout_s=5.0)
    assert queued.snapshot()["retry_after_s"] == 5.0


def test_http_429_then_retry_succeeds(tmp_path):
    server = start_server(
        tmp_path, {"solo": 1_200}, max_active=1, max_queued=0, audit=False
    )
    try:
        # Hold the server's only execution slot hostage.
        slot = server.admission.admit()
        slot.__enter__()
        try:
            with VerdictClient(port=server.port, tenant="solo", max_retries=0) as c:
                with pytest.raises(SaturatedError) as excinfo:
                    c.ask(COUNT_SQL, max_relative_error=0.0)
            assert excinfo.value.code == "shed_load"

            # A retrying client keeps backing off until the slot frees.
            answers: list[dict] = []

            def retrying_ask() -> None:
                with VerdictClient(
                    port=server.port,
                    tenant="solo",
                    max_retries=50,
                    backoff_base_s=0.01,
                    backoff_cap_s=0.05,
                ) as client:
                    answers.append(client.ask(COUNT_SQL, max_relative_error=0.0))
                    retries.append(client.retries_performed)

            retries: list[int] = []
            sheds_before = server.admission.snapshot()["shed"]
            thread = threading.Thread(target=retrying_ask, daemon=True)
            thread.start()
            while server.admission.snapshot()["shed"] < sheds_before + 3:
                threading.Event().wait(0.005)  # let it bounce a few times
        finally:
            slot.__exit__(None, None, None)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert answers and answers[0]["rows"][0]["values"]["count_star"] == 1_200
        assert retries[0] >= 3
    finally:
        server.close()
