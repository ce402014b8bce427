"""Per-route circuit breakers for the serving layer.

A route that keeps failing (inference raising on a singular covariance, an
injected fault, a bug in one engine) should stop being *tried* -- each
failed attempt costs latency that the waterfall then adds on top of the
fallback route's own work.  A :class:`CircuitBreaker` watches the recent
outcome window of one route and trips open when the error rate crosses a
threshold, so the planner's waterfall skips straight to the fallback.

States (the classic three):

* **closed** -- normal operation; outcomes are recorded into a sliding
  window of the last ``window`` attempts, and when the window is full and
  its failure fraction reaches ``failure_threshold``, the breaker opens;
* **open** -- the route is skipped outright for ``cooldown_s`` seconds
  (measured on the monotonic clock);
* **half-open** -- after the cooldown, up to ``probe_limit`` concurrent
  probe requests are let through: one success closes the breaker (the
  window is cleared -- old failures should not trip it again instantly),
  one failure re-opens it for another cooldown.

Callers drive it with three calls around each attempt::

    if breaker.allow():
        try:
            ...run the route...
        except Exception:
            breaker.record_failure()
            raise
        else:
            breaker.record_success()
    # a caller that got True from allow() but never ran must breaker.cancel()

State transitions are counted and timestamped so the health endpoint can
say *why* a service is degraded, and every transition is reported to the
optional ``on_transition`` callback (the service forwards them into the
metrics event counters).

Clock injection (``clock=``) keeps the tests deterministic: cooldown expiry
is just "the fake clock advanced", never a real sleep.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window error-rate circuit breaker (thread-safe)."""

    def __init__(
        self,
        name: str = "",
        window: int = 8,
        failure_threshold: float = 0.5,
        cooldown_s: float = 5.0,
        probe_limit: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str, str], None] | None = None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if probe_limit < 1:
            raise ValueError("probe_limit must be >= 1")
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_limit = probe_limit
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._transitions = 0

    # ----------------------------------------------------------------- public

    @property
    def state(self) -> str:
        """Current state, advancing open -> half-open if the cooldown passed."""
        with self._lock:
            self._advance()
            return self._state

    def allow(self) -> bool:
        """Whether the caller may attempt the route now.

        In half-open state this *admits a probe* (counted against
        ``probe_limit``); a caller that got ``True`` must follow up with
        exactly one of :meth:`record_success`, :meth:`record_failure`, or
        :meth:`cancel` -- otherwise the probe slot leaks and the breaker
        can wedge half-open.
        """
        return self.refusal(take=True) is None

    def refusal(self, take: bool) -> str | None:
        """Why an attempt would be turned away now, or ``None`` if admitted.

        The one admission rule: closed admits; open refuses for the rest
        of its cooldown; half-open admits while a probe slot is free.  With
        ``take`` an admitted half-open attempt takes its probe slot (what
        :meth:`allow` does); without it nothing is consumed, which is how
        EXPLAIN reports what the next request would do.
        """
        with self._lock:
            self._advance()
            if self._state == OPEN:
                return (
                    "circuit breaker open for another "
                    f"{self._cooldown_remaining_s():.3g}s"
                )
            if self._state == HALF_OPEN:
                if self._probes_inflight >= self.probe_limit:
                    return "circuit breaker half-open with its probe slots taken"
                if take:
                    self._probes_inflight += 1
            return None

    def record_success(self) -> None:
        with self._lock:
            self._advance()
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._outcomes.clear()
                self._transition(CLOSED)
                return
            self._outcomes.append(False)

    def record_failure(self) -> None:
        with self._lock:
            self._advance()
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._open()
                return
            self._outcomes.append(True)
            if self._state == CLOSED and len(self._outcomes) == self.window:
                failures = sum(self._outcomes)
                if failures / self.window >= self.failure_threshold:
                    self._open()

    def cancel(self) -> None:
        """Release an :meth:`allow`-admitted attempt that never ran."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)

    def snapshot(self) -> dict:
        """State + accounting for metrics/health endpoints."""
        with self._lock:
            self._advance()
            recent = list(self._outcomes)
            return {
                "state": self._state,
                "window": len(recent),
                "recent_failures": sum(recent),
                "transitions": self._transitions,
                "cooldown_remaining_s": (
                    self._cooldown_remaining_s() if self._state == OPEN else 0.0
                ),
            }

    # --------------------------------------------------------------- internals

    def _cooldown_remaining_s(self) -> float:
        """Seconds until an open breaker goes half-open (lock held)."""
        return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    def _advance(self) -> None:
        """Open -> half-open once the cooldown has elapsed (lock held)."""
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown_s:
            self._probes_inflight = 0
            self._transition(HALF_OPEN)

    def _open(self) -> None:
        self._opened_at = self._clock()
        self._outcomes.clear()
        self._transition(OPEN)

    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        self._transitions += 1
        if self._on_transition is not None:
            # Called with the lock held; the callback must not call back in.
            self._on_transition(self.name, old, new_state)
