"""Per-tenant resource governance: token buckets, cancellation, brownout.

The global :class:`~repro.serve.http.admission.AdmissionController` bounds
*total* concurrent engine work, but it is tenant-blind: one abusive tenant
offering unbounded load fills the shared queue and starves everyone else.
This module layers three mechanisms under it:

**Cost-priced token buckets** (:class:`TokenBucket`, :class:`ResourceGovernor`).
Every tenant owns a bucket refilled at ``tenant_qps`` tokens per second with
``burst_s`` seconds of burst capacity.  A request's price comes from the
planner's deterministic cost estimates *before* any engine work runs: a
cheap cached/learned ask costs about one token, a forced exact scan costs
``1 + estimated_seconds / cost_unit_s``.  A tenant whose bucket cannot
cover the price is shed with a 429 carrying its quota state (remaining
tokens, refill wait) so well-behaved tenants never queue behind an abuser.
Tokens price *offered* load: a governor-admitted request that the global
controller later sheds does not get a refund -- hammering a saturated
server still spends quota, which is exactly the pressure that protects the
other tenants.

**Cooperative cancellation** (:class:`CancelRegistry`).  The front door
registers each in-flight ask's :class:`~repro.deadline.CancelToken` under
its request id; ``POST /v1/cancel/<request_id>`` (or a client disconnect
detected by the token's socket probe) arms the token, and the next
``Limits.check`` poll deep in the scan/online-agg loops raises
:class:`~repro.errors.QueryCancelled` -- the worker slot frees promptly and
nothing is cached or recorded.

**Brownout** (:class:`BrownoutController`).  Under sustained saturation
(admission queue-wait p99 over a threshold for N consecutive windows) the
controller escalates a brownout level that widens every request's
error tolerance -- and, at deeper levels, replaces a hard ``exact``
requirement with a small error floor -- steering the planner onto the
cheap approximate routes so goodput degrades smoothly instead of
collapsing into a wall of 429s.  M consecutive healthy windows walk the
level back down.  Level, transitions, and window verdicts are exported as
Prometheus families and surfaced in ``/v1/healthz`` and EXPLAIN.

Everything here is deliberately engine-free: the governor prices requests
from numbers the planner already computed and never touches tables, so a
shed costs microseconds.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator

from repro import faults
from repro.deadline import CancelToken
from repro.obs.metrics import Registry
from repro.obs.trace import Span, set_attrs
from repro.serve.planner import ServiceBudget

# ShedLoad lives in repro.serve.http.admission, whose package __init__ pulls
# in the HTTP server -- which imports this module.  Import it lazily at the
# first shed to break the cycle.
_SHED_LOAD = None


def _shed_load_type():
    global _SHED_LOAD
    if _SHED_LOAD is None:
        from repro.serve.http.admission import ShedLoad

        _SHED_LOAD = ShedLoad
    return _SHED_LOAD


class TokenBucket:
    """A thread-safe token bucket with exact spend accounting.

    ``capacity`` tokens of burst, refilled continuously at ``refill_per_s``.
    ``spent`` is the exact cumulative cost of every successful
    :meth:`try_acquire` -- the conservation invariant the property tests
    assert: ``spent == sum(granted costs)`` and the level never goes
    negative.  ``clock`` is injectable so tests control time.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill_per_s <= 0:
            raise ValueError("refill_per_s must be positive")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(capacity)
        self._last = clock()
        self.spent = 0.0
        self.granted = 0
        self.denied = 0

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_per_s)
            self._last = now

    def try_acquire(self, cost: float) -> tuple[bool, float, float]:
        """Spend ``cost`` tokens if available.

        Returns ``(ok, remaining, refill_wait_s)`` where ``refill_wait_s``
        is how long until the bucket holds ``cost`` tokens (0.0 when the
        acquire succeeded).  A cost above the bucket's *capacity* can still
        be granted once enough tokens accumulate -- it is clamped to
        capacity for the wait computation so oversized requests are not
        told to wait forever (they drain the full bucket instead).
        """
        if cost < 0:
            raise ValueError("cost must be non-negative")
        with self._lock:
            self._refill_locked()
            charge = min(cost, self.capacity)
            if self._tokens >= charge:
                self._tokens -= charge
                self.spent += charge
                self.granted += 1
                return True, self._tokens, 0.0
            self.denied += 1
            # A subnormal deficit divided by the refill rate can round to
            # 0.0; a denial must still tell the caller to wait.
            wait = max((charge - self._tokens) / self.refill_per_s, math.ulp(0.0))
            return False, self._tokens, wait

    def credit(self, amount: float) -> None:
        """Return ``amount`` tokens (capped at capacity); unspends them."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        with self._lock:
            self._refill_locked()
            credited = min(amount, self.capacity - self._tokens)
            self._tokens += credited
            self.spent = max(0.0, self.spent - credited)

    @property
    def remaining(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens

    def snapshot(self) -> dict:
        with self._lock:
            self._refill_locked()
            return {
                "capacity": self.capacity,
                "refill_per_s": self.refill_per_s,
                "remaining": self._tokens,
                "spent": self.spent,
                "granted": self.granted,
                "denied": self.denied,
            }


#: Per-tenant governor admission outcomes.
OUTCOMES = ("admitted", "shed_tokens", "shed_concurrency")


class CancelRegistry:
    """Request-id -> :class:`CancelToken` map for in-flight asks.

    ``cancel`` is the ``POST /v1/cancel/<request_id>`` entry point: it arms
    the token (idempotently) and reports whether the id was known.  Tokens
    are registered *before* execution starts and unregistered in a
    ``finally``, so a cancel can never race a slot leak.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tokens: dict[str, tuple[CancelToken, str]] = {}
        self.requested = 0
        self.delivered = 0
        self.unknown = 0

    @contextmanager
    def track(self, request_id: str, token: CancelToken, tenant: str) -> Iterator[None]:
        with self._lock:
            self._tokens[request_id] = (token, tenant)
        try:
            yield
        finally:
            with self._lock:
                self._tokens.pop(request_id, None)

    def cancel(self, request_id: str, reason: str = "requested") -> tuple[bool, str]:
        """Arm the token for ``request_id``; returns ``(found, tenant)``."""
        with self._lock:
            self.requested += 1
            entry = self._tokens.get(request_id)
            if entry is None:
                self.unknown += 1
                return False, ""
        token, tenant = entry
        # The fault point sits between the lookup and the arm: a kill here
        # models a server dying mid-cancellation, which the crash matrix
        # proves leaves no torn state (the query never recorded anything).
        # It (and the arm) runs outside the lock so a "delay" rule cannot
        # block every other cancel and track call behind it.
        faults.inject("governor.cancel", request_id=request_id, tenant=tenant)
        if token.cancel(reason):
            with self._lock:
                self.delivered += 1
        return True, tenant

    def in_flight(self) -> int:
        with self._lock:
            return len(self._tokens)


class ResourceGovernor:
    """Per-tenant token buckets and concurrency caps under the global gate.

    ``tenant_qps`` is the steady-state refill in *cheap-query tokens* per
    second (a cached/learned ask prices at ~1 token); ``burst_s`` sizes the
    bucket at ``tenant_qps * burst_s`` tokens.  ``tenant_concurrency``
    bounds one tenant's simultaneously executing asks.  Either limit may be
    ``None`` (unlimited) -- with both ``None`` the governor still tracks
    per-tenant counters and hosts the cancel registry, so cancellation and
    metrics work on an ungoverned server.
    """

    def __init__(
        self,
        tenant_qps: float | None = None,
        tenant_concurrency: int | None = None,
        burst_s: float = 2.0,
        cost_unit_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if tenant_qps is not None and tenant_qps <= 0:
            raise ValueError("tenant_qps must be positive (or None)")
        if tenant_concurrency is not None and tenant_concurrency <= 0:
            raise ValueError("tenant_concurrency must be positive (or None)")
        if burst_s <= 0:
            raise ValueError("burst_s must be positive")
        if cost_unit_s <= 0:
            raise ValueError("cost_unit_s must be positive")
        self.tenant_qps = tenant_qps
        self.tenant_concurrency = tenant_concurrency
        self.burst_s = burst_s
        self.cost_unit_s = cost_unit_s
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket | None] = {}
        self.cancels = CancelRegistry()
        cancels = self.cancels
        self.registry = registry = Registry()
        self._outcomes = registry.counter(
            "verdict_governor_outcomes_total",
            "Per-tenant governor admission outcomes.",
            ("tenant", "outcome"),
        )
        registry.counter(
            "verdict_governor_tokens_spent_total",
            "Cumulative priced tokens spent, per tenant.",
            ("tenant",),
            fn=lambda: self._bucket_series("spent"),
        )
        registry.gauge(
            "verdict_governor_tokens_remaining",
            "Tokens currently available in each tenant's bucket.",
            ("tenant",),
            fn=lambda: self._bucket_series("remaining"),
        )
        self._active = registry.gauge(
            "verdict_governor_active",
            "Requests currently executing, per tenant.",
            ("tenant",),
        )
        self._cancelled = registry.counter(
            "verdict_governor_cancels_total",
            "Delivered query cancellations, per tenant and reason.",
            ("tenant", "reason"),
        )
        registry.counter(
            "verdict_cancel_requests_total",
            "POST /v1/cancel outcomes.",
            ("outcome",),
            fn=lambda: {"delivered": cancels.delivered, "unknown": cancels.unknown},
        )

    # ------------------------------------------------------------------ pricing

    def price(self, estimated_seconds: float) -> float:
        """Tokens for a request the planner expects to cost this much.

        One base token (every request occupies the wire and a handler
        thread) plus the estimated model-seconds in ``cost_unit_s`` units:
        the forced exact scan the planner prices at seconds costs an order
        of magnitude more quota than a sub-``cost_unit_s`` first-batch
        estimate, which is the starvation protection.
        """
        if estimated_seconds < 0:
            estimated_seconds = 0.0
        return 1.0 + estimated_seconds / self.cost_unit_s

    def price_query(self, planner, parsed, budget: ServiceBudget | None) -> float:
        """Price one ask from the tenant planner's cost estimates."""
        try:
            if budget is not None and budget.requires_exact:
                estimate = planner.estimated_exact_seconds(parsed)
            else:
                estimate = planner.estimated_first_batch_seconds(parsed)
        except Exception:
            # An unpriceable query (unknown table surfaces later as a 404)
            # costs the base token only.
            estimate = 0.0
        return self.price(estimate)

    # ---------------------------------------------------------------- admission

    def _bucket(self, tenant: str) -> TokenBucket | None:
        """The tenant's bucket (``None`` when unmetered), made on first sight."""
        with self._lock:
            if tenant not in self._buckets:
                self._buckets[tenant] = (
                    None
                    if self.tenant_qps is None
                    else TokenBucket(
                        capacity=self.tenant_qps * self.burst_s,
                        refill_per_s=self.tenant_qps,
                        clock=self._clock,
                    )
                )
                for outcome in OUTCOMES:
                    self._outcomes.inc(tenant, outcome, by=0)
                self._active.inc(tenant, by=0)
            return self._buckets[tenant]

    def _bucket_series(self, key: str) -> dict:
        with self._lock:
            buckets = list(self._buckets.items())
        return {
            tenant: bucket.snapshot()[key]
            for tenant, bucket in buckets
            if bucket is not None
        }

    def quota_state(self, tenant: str) -> dict:
        """The tenant's live quota numbers (the 429 body's ``quota`` field)."""
        bucket = self._bucket(tenant)
        quota: dict = {
            "tenant_qps": self.tenant_qps,
            "tenant_concurrency": self.tenant_concurrency,
            "active": self._active.value(tenant),
        }
        if bucket is not None:
            snap = bucket.snapshot()
            quota["remaining_tokens"] = round(snap["remaining"], 6)
            quota["capacity_tokens"] = snap["capacity"]
        return quota

    @contextmanager
    def admit(self, tenant: str, cost: float, span: Span | None = None) -> Iterator[None]:
        """Hold one tenant-concurrency slot after spending ``cost`` tokens.

        Raises :class:`ShedLoad` (HTTP 429) when the tenant is over either
        limit; the error carries the quota state and a Retry-After derived
        from the bucket's actual refill wait, not the global queue horizon.
        The outcome is set on ``span``.
        """
        bucket = self._bucket(tenant)
        shed: tuple[str, float] | None = None
        with self._lock:
            active = self._active.value(tenant)
            if self.tenant_concurrency is not None and active >= self.tenant_concurrency:
                self._outcomes.inc(tenant, "shed_concurrency")
                shed = (
                    f"tenant {tenant!r} is at its concurrency cap "
                    f"({active}/{self.tenant_concurrency} active)",
                    # The honest hint is one in-flight request draining;
                    # the bucket refill pace is the natural proxy.
                    1.0 / (self.tenant_qps or 1.0),
                )
            else:
                if bucket is not None:
                    ok, remaining, wait = bucket.try_acquire(cost)
                    if not ok:
                        self._outcomes.inc(tenant, "shed_tokens")
                        shed = (
                            f"tenant {tenant!r} is out of quota "
                            f"({remaining:.2f} tokens, request priced {cost:.2f})",
                            wait,
                        )
                if shed is None:
                    self._active.inc(tenant)
                    self._outcomes.inc(tenant, "admitted")
        if shed is not None:
            self._shed(tenant, shed[0], shed[1], span)
        set_attrs(span, governor="admitted", cost_tokens=round(cost, 4))
        try:
            yield
        finally:
            self._active.inc(tenant, by=-1)

    def _shed(self, tenant: str, message: str, retry_after_s: float, span: Span | None) -> None:
        """Raise the priced 429 (fault-injectable); lock NOT held here."""
        quota = self.quota_state(tenant)
        quota["refill_s"] = round(max(retry_after_s, 0.0), 6)
        retry_after = min(max(retry_after_s, 0.05), 30.0)
        set_attrs(span, governor="shed", retry_after_s=retry_after)
        faults.inject("governor.shed", tenant=tenant)
        raise _shed_load_type()(message, retry_after_s=retry_after, quota=quota)

    def record_cancel(self, tenant: str, reason: str) -> None:
        """Count one delivered cancellation against ``tenant``."""
        self._bucket(tenant)  # a tenant is reported from its first sighting
        self._cancelled.inc(tenant, reason)

    # ------------------------------------------------------------------ reports

    @property
    def enabled(self) -> bool:
        return self.tenant_qps is not None or self.tenant_concurrency is not None

    def snapshot(self) -> dict:
        with self._lock:
            buckets = sorted(self._buckets.items())
        outcomes = self._outcomes.series()
        cancelled = self._cancelled.series()
        tenants = {
            name: {
                "active": self._active.value(name),
                "admitted": outcomes[(name, "admitted")],
                "shed_tokens": outcomes[(name, "shed_tokens")],
                "shed_concurrency": outcomes[(name, "shed_concurrency")],
                "cancelled": {
                    reason: count
                    for (owner, reason), count in cancelled.items()
                    if owner == name
                },
                "bucket": bucket.snapshot() if bucket else None,
            }
            for name, bucket in buckets
        }
        return {
            "enabled": self.enabled,
            "tenant_qps": self.tenant_qps,
            "tenant_concurrency": self.tenant_concurrency,
            "burst_s": self.burst_s,
            "cost_unit_s": self.cost_unit_s,
            "cancels": {
                "requested": self.cancels.requested,
                "delivered": self.cancels.delivered,
                "unknown": self.cancels.unknown,
                "in_flight": self.cancels.in_flight(),
            },
            "tenants": tenants,
        }


class BrownoutController:
    """Windowed saturation detector that widens budgets under overload.

    Feed it every ask's admission queue wait (0.0 for immediate
    admissions).  Observations land in fixed ``window_s`` windows; a window
    whose queue-wait p99 exceeds ``threshold_s`` is *saturated*.
    ``saturated_windows`` consecutive saturated windows escalate the
    brownout level (to at most ``max_level``); ``healthy_windows``
    consecutive healthy ones -- including empty windows, an idle server is
    a healthy server -- de-escalate it.

    :meth:`effective_budget` maps a request's budget through the level:

    * level 0 -- unchanged;
    * any level -- a finite ``max_relative_error`` is widened by
      ``widen_factor ** level``;
    * level >= ``exact_relax_level`` -- a hard exact requirement
      (``max_relative_error == 0.0``) is replaced by
      ``exact_floor * (level - exact_relax_level + 1)``, steering the
      planner off the expensive exact route entirely.

    Budgets with no error bound are already best-effort and pass through.
    """

    def __init__(
        self,
        threshold_s: float = 0.5,
        window_s: float = 1.0,
        saturated_windows: int = 3,
        healthy_windows: int = 3,
        max_level: int = 3,
        widen_factor: float = 2.0,
        exact_relax_level: int = 2,
        exact_floor: float = 0.02,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold_s <= 0 or window_s <= 0:
            raise ValueError("threshold_s and window_s must be positive")
        if saturated_windows < 1 or healthy_windows < 1:
            raise ValueError("window counts must be >= 1")
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        if widen_factor <= 1.0:
            raise ValueError("widen_factor must exceed 1.0")
        if not 1 <= exact_relax_level <= max_level:
            raise ValueError("exact_relax_level must be within 1..max_level")
        if exact_floor <= 0:
            raise ValueError("exact_floor must be positive")
        self.threshold_s = threshold_s
        self.window_s = window_s
        self.saturated_windows = saturated_windows
        self.healthy_windows = healthy_windows
        self.max_level = max_level
        self.widen_factor = widen_factor
        self.exact_relax_level = exact_relax_level
        self.exact_floor = exact_floor
        self._clock = clock
        self._lock = threading.Lock()
        self._window_start = clock()
        self._samples: list[float] = []
        self._saturated_streak = 0
        self._healthy_streak = 0
        self.level = 0
        self.last_p99 = 0.0
        self.registry = registry = Registry()
        registry.gauge(
            "verdict_brownout_level",
            "Current brownout level (0 = budgets untouched).",
            fn=lambda: self.level,
        )
        self._transitions = registry.counter(
            "verdict_brownout_transitions_total",
            "Brownout level transitions, by direction.",
            ("direction",),
        )
        self._windows = registry.counter(
            "verdict_brownout_windows_total",
            "Closed saturation-detector windows, by verdict.",
            ("state",),
        )
        for direction in ("escalate", "deescalate"):
            self._transitions.inc(direction, by=0)
        for state in ("saturated", "healthy"):
            self._windows.inc(state, by=0)
        registry.gauge(
            "verdict_brownout_queue_wait_p99_seconds",
            "Queue-wait p99 of the most recently closed window.",
            fn=lambda: self.last_p99,
        )

    # ----------------------------------------------------------------- feeding

    def observe(self, queue_wait_s: float) -> None:
        """Record one ask's queue wait (rolls windows as the clock advances)."""
        with self._lock:
            self._roll_locked()
            self._samples.append(queue_wait_s)

    def tick(self) -> None:
        """Advance window bookkeeping without an observation (idle recovery)."""
        with self._lock:
            self._roll_locked()

    def _roll_locked(self) -> None:
        now = self._clock()
        while now - self._window_start >= self.window_s:
            self._close_window_locked()
            self._window_start += self.window_s
            if self.level == 0 and self._saturated_streak == 0:
                # Every remaining elapsed window is empty and healthy and
                # cannot change the level; account them in bulk so an idle
                # day is not closed one window at a time.
                gap = int((now - self._window_start) // self.window_s)
                if gap > 0:
                    self._windows.inc("healthy", by=gap)
                    self._healthy_streak += gap
                    self._window_start += gap * self.window_s

    def _close_window_locked(self) -> None:
        samples = self._samples
        self._samples = []
        if samples:
            ordered = sorted(samples)
            rank = math.ceil(0.99 * len(ordered))
            self.last_p99 = ordered[min(max(rank - 1, 0), len(ordered) - 1)]
            saturated = self.last_p99 > self.threshold_s
        else:
            self.last_p99 = 0.0
            saturated = False
        if saturated:
            self._windows.inc("saturated")
            self._saturated_streak += 1
            self._healthy_streak = 0
            if (
                self._saturated_streak >= self.saturated_windows
                and self.level < self.max_level
            ):
                self.level += 1
                self._transitions.inc("escalate")
                self._saturated_streak = 0
        else:
            self._windows.inc("healthy")
            self._healthy_streak += 1
            self._saturated_streak = 0
            if self._healthy_streak >= self.healthy_windows and self.level > 0:
                self.level -= 1
                self._transitions.inc("deescalate")
                self._healthy_streak = 0

    # ----------------------------------------------------------------- applying

    def effective_budget(self, budget: ServiceBudget) -> ServiceBudget:
        """The budget this request actually runs under at the current level."""
        level = self.level
        if level == 0 or budget.max_relative_error is None:
            return budget
        if budget.max_relative_error == 0.0:
            if level < self.exact_relax_level:
                return budget
            floor = self.exact_floor * (level - self.exact_relax_level + 1)
            return replace(budget, max_relative_error=floor)
        widened = budget.max_relative_error * (self.widen_factor**level)
        return replace(budget, max_relative_error=widened)

    # ------------------------------------------------------------------ reports

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "level": self.level,
                "max_level": self.max_level,
                "threshold_s": self.threshold_s,
                "window_s": self.window_s,
                "last_p99_s": self.last_p99,
                "saturated_streak": self._saturated_streak,
                "healthy_streak": self._healthy_streak,
                "windows_saturated": self._windows.value("saturated"),
                "windows_healthy": self._windows.value("healthy"),
                "escalations": self._transitions.value("escalate"),
                "deescalations": self._transitions.value("deescalate"),
            }
