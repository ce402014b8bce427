"""Bounded admission control with shed-load backpressure.

The HTTP front door executes queries on its connection-handler threads, so
without a gate an unbounded burst of clients would run an unbounded number
of engine queries at once.  :class:`AdmissionController` is that gate:

* at most ``max_active`` requests execute concurrently;
* at most ``max_queued`` further requests wait in line (FIFO by condition
  wakeup) -- the *bounded admission queue*;
* a request arriving with the queue full, or one whose wait exceeds
  ``queue_timeout_s``, is **shed** immediately (:class:`ShedLoad`, mapped to
  HTTP 429) rather than piling latency onto everyone else;
* once :meth:`close` is called, new arrivals and queued waiters all fail
  with :class:`ShuttingDown` (HTTP 503) while already-admitted requests run
  to completion -- the clean-shutdown half of the backpressure contract.

Every request therefore gets **exactly one** terminal outcome: admitted
(then completes), shed, or rejected-closed.  The hypothesis property test
in ``tests/serve/http/test_backpressure.py`` drives randomized burst
schedules against exactly these invariants.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReproError
from repro.obs.metrics import Registry
from repro.obs.trace import set_attrs

#: Terminal outcomes of an arrival; every arrival lands in exactly one.
OUTCOMES = (
    "admitted_immediate",
    "admitted_queued",
    "shed_queue_full",
    "shed_timeout",
    "rejected_closed",
)


class ShedLoad(ReproError):
    """The admission queue is full (or the wait timed out): retry later.

    ``retry_after_s`` is the controller's backoff hint -- how long a client
    should wait before retrying, sized to the queue drain time.  The HTTP
    layer forwards it as the 429 response's ``Retry-After`` header.

    ``quota``, set on tenant-level sheds from the resource governor, is the
    tenant's live quota state (remaining tokens, refill wait, concurrency)
    -- it rides into the 429 body so clients can size their backoff to the
    *actual* bucket refill instead of the global queue horizon.
    """

    def __init__(
        self, message: str, retry_after_s: float = 1.0, quota: dict | None = None
    ):
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.quota = quota


class ShuttingDown(ReproError):
    """The server is draining and accepts no new work."""


class AdmissionController:
    """Counting gate: bounded concurrency, bounded queue, shed beyond both."""

    def __init__(
        self,
        max_active: int,
        max_queued: int,
        queue_timeout_s: float | None = 5.0,
    ):
        if max_active <= 0:
            raise ValueError("max_active must be positive")
        if max_queued < 0:
            raise ValueError("max_queued must be non-negative")
        if queue_timeout_s is not None and queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        self.max_active = max_active
        self.max_queued = max_queued
        self.queue_timeout_s = queue_timeout_s
        # Two conditions over one lock: ``_slots`` wakes exactly ONE queued
        # waiter per freed slot (a notify_all here is a thundering herd --
        # with N queued handler threads every completion would wake all N),
        # ``_idle`` wakes the drain waiters when the last active leaves.
        self._lock = threading.Lock()
        self._slots = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._queued = 0
        self._closed = False
        # Counted under ``_lock``, so a snapshot taken under it is
        # consistent; completed trails the admitted outcomes.
        self.completed = 0
        self.peak_active = 0
        self.peak_queued = 0
        self.registry = registry = Registry()
        self._outcomes = registry.counter(
            "verdict_admission_outcomes_total",
            "Request admission outcomes (every arrival lands in exactly one).",
            ("outcome",),
        )
        for outcome in OUTCOMES:
            self._outcomes.inc(outcome, by=0)
        registry.gauge(
            "verdict_admission_active",
            "Requests currently executing.",
            fn=lambda: self._active,
        )
        registry.gauge(
            "verdict_admission_queued",
            "Requests currently waiting in queue.",
            fn=lambda: self._queued,
        )
        self._queue_wait = registry.histogram(
            "verdict_admission_queue_wait_seconds",
            "Queue wait of requests admitted after queueing.",
        )

    # ------------------------------------------------------------------ public

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Hold one execution slot; blocks in the bounded queue if needed.

        Raises :class:`ShedLoad` when the queue is full or the wait times
        out, :class:`ShuttingDown` when the controller is closed before a
        slot frees up.
        """
        self._acquire()
        try:
            yield
        finally:
            self._release()

    def close(self) -> None:
        """Stop admitting: queued waiters fail fast, active requests finish."""
        with self._lock:
            self._closed = True
            self._slots.notify_all()
            self._idle.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def wait_idle(self, timeout_s: float | None = None) -> bool:
        """Block until no admitted request is still executing."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while self._active:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def snapshot(self) -> dict:
        """Counters and gauges for the metrics endpoint."""
        with self._lock:
            outcomes = {outcome: count for (outcome,), count in self._outcomes.series().items()}
            return {
                "max_active": self.max_active,
                "max_queued": self.max_queued,
                "active": self._active,
                "queued": self._queued,
                "admitted": outcomes["admitted_immediate"] + outcomes["admitted_queued"],
                "admitted_immediate": outcomes["admitted_immediate"],
                "admitted_queued": outcomes["admitted_queued"],
                "completed": self.completed,
                "shed": outcomes["shed_queue_full"] + outcomes["shed_timeout"],
                "shed_queue_full": outcomes["shed_queue_full"],
                "shed_timeout": outcomes["shed_timeout"],
                "rejected_closed": outcomes["rejected_closed"],
                "peak_active": self.peak_active,
                "peak_queued": self.peak_queued,
                "queue_wait": self._queue_wait.histogram(),
                "retry_after_s": self._retry_after_locked(),
                "closed": self._closed,
            }

    # ----------------------------------------------------------------- private

    def _acquire(self) -> None:
        with self._lock:
            if self._closed:
                self._outcomes.inc("rejected_closed")
                set_attrs(admission="rejected_closed")
                raise ShuttingDown("admission closed: server is shutting down")
            if self._active < self.max_active:
                self._admit_locked("admitted_immediate")
                set_attrs(admission="admitted")
                return
            if self._queued >= self.max_queued:
                self._outcomes.inc("shed_queue_full")
                retry_after = self._retry_after_locked()
                set_attrs(admission="shed_queue_full", retry_after_s=retry_after)
                raise ShedLoad(
                    f"admission queue full ({self._queued}/{self.max_queued} "
                    f"queued, {self._active} active)",
                    retry_after_s=retry_after,
                )
            self._queued += 1
            self.peak_queued = max(self.peak_queued, self._queued)
            wait_started = time.monotonic()
            deadline = (
                None
                if self.queue_timeout_s is None
                else wait_started + self.queue_timeout_s
            )
            try:
                while True:
                    if self._closed:
                        self._outcomes.inc("rejected_closed")
                        set_attrs(admission="rejected_closed")
                        raise ShuttingDown(
                            "admission closed while queued: server is shutting down"
                        )
                    if self._active < self.max_active:
                        self._admit_locked("admitted_queued")
                        waited = time.monotonic() - wait_started
                        self._queue_wait.observe(waited)
                        set_attrs(admission="admitted_after_queue", queue_wait_s=waited)
                        return
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self._outcomes.inc("shed_timeout")
                        retry_after = self._retry_after_locked()
                        set_attrs(admission="shed_timeout", retry_after_s=retry_after)
                        raise ShedLoad(
                            f"gave up after queueing {self.queue_timeout_s:g}s",
                            retry_after_s=retry_after,
                        )
                    self._slots.wait(remaining)
            except BaseException:
                # This waiter may have consumed a one-shot slot notification
                # it is now declining (timeout, shutdown): pass it on so the
                # free slot cannot strand the remaining sleepers.
                self._slots.notify(1)
                raise
            finally:
                self._queued -= 1

    def _retry_after_locked(self) -> float:
        """Deterministic backoff hint for a shed request, in seconds.

        A shed means the queue (plus every active slot) is saturated; the
        honest hint is the configured queue-drain horizon -- a client
        retrying sooner would rejoin the same full queue.  With no queue
        (``max_queued == 0``) there is nothing to drain, only an active
        slot to free, so the hint is the 1 s floor.  Clamped to [1, 30] so
        a generous ``queue_timeout_s`` never tells clients to disappear for
        minutes.
        """
        if self.max_queued == 0 or self.queue_timeout_s is None:
            return 1.0
        return min(max(self.queue_timeout_s, 1.0), 30.0)

    def _admit_locked(self, outcome: str) -> None:
        self._active += 1
        self._outcomes.inc(outcome)
        self.peak_active = max(self.peak_active, self._active)

    def _release(self) -> None:
        with self._lock:
            self._active -= 1
            self.completed += 1
            # One freed slot wakes exactly one queued waiter.
            self._slots.notify(1)
            if self._active == 0:
                self._idle.notify_all()
