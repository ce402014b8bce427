"""Per-request wall-clock deadlines with cooperative cancellation.

A :class:`Deadline` is an absolute monotonic-clock expiry created once per
request, and a :class:`CancelToken` is a latch the front door arms when the
client cancels or hangs up.  ``VerdictService.query`` bundles the two into
one frozen :class:`Limits` value, with the request's trace span, and
passes it down, as an argument, to the long-running loops deep in the
stack -- the online-aggregation batch loop and the morsel scan loop --
which poll it between units of work:

* loops that can return a **partial answer** (online aggregation holds a
  valid estimate ± error after every batch) keep the last estimate when
  the deadline expires; the serving layer flags the answer as *degraded*;
* loops that cannot (the exact scan is all-or-nothing) raise
  :class:`~repro.errors.DeadlineExceeded`, which the front door maps to
  HTTP 504.

Cancellation is cooperative by design: Python threads cannot be safely
killed, so every cancellable loop opts in with one cheap ``check`` per
batch/morsel.  Library callers that pass no limits get :data:`UNLIMITED`,
whose check is a no-op.

The front door creates one token per request, arms it when
``POST /v1/cancel/<request_id>`` arrives or when the client socket reports
a disconnect, and :meth:`Limits.check` raises
:class:`~repro.errors.QueryCancelled` at the next poll.  Unlike a deadline
expiry, a cancellation never yields a partial answer -- nobody is
listening -- so the serving layer aborts without caching or recording.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import DeadlineExceeded, QueryCancelled
from repro.obs.trace import Span


class CancelToken:
    """A thread-safe one-shot cancellation flag polled at loop checkpoints.

    ``cancel()`` is idempotent and latches the first reason.  An optional
    ``probe`` callable (the HTTP front door's client-disconnect peek) is
    invoked at most once per ``probe_interval_s`` during :meth:`check`; if
    it returns a reason string the token cancels itself -- this is how a
    long-running exact scan notices its client hung up without a watcher
    thread.  Probes run outside the lock (a socket peek can block briefly)
    and are dropped permanently if they raise.
    """

    def __init__(
        self,
        probe: Callable[[], str | None] | None = None,
        probe_interval_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""
        self._probe = probe
        self._probe_interval_s = probe_interval_s
        self._clock = clock
        self._next_probe_at = clock()

    def cancel(self, reason: str = "requested") -> bool:
        """Latch the cancel flag; returns True on the first (effective) call."""
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self._reason = reason
            return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    def check(self, where: str = "") -> None:
        """Raise :class:`QueryCancelled` if cancelled (probing first)."""
        if not self._cancelled and self._probe is not None:
            probe = None
            with self._lock:
                now = self._clock()
                if now >= self._next_probe_at:
                    self._next_probe_at = now + self._probe_interval_s
                    probe = self._probe
            if probe is not None:
                try:
                    reason = probe()
                except Exception:
                    self._probe = None  # broken probe: never retry it
                    reason = None
                if reason:
                    self.cancel(reason)
        if self._cancelled:
            raise QueryCancelled(
                f"query cancelled ({self._reason})"
                + (f" during {where}" if where else ""),
                reason=self._reason,
            )


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock expiry (monotonic seconds)."""

    expires_at: float
    budget_s: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        if seconds <= 0:
            raise ValueError("deadline seconds must be positive")
        return cls(expires_at=time.monotonic() + seconds, budget_s=seconds)

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if this deadline has expired."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s expired"
                + (f" during {where}" if where else "")
            )


@dataclass(frozen=True)
class Limits:
    """One request's deadline, cancel token and trace span, passed down.

    Any part may be ``None``.  :meth:`check` polls the token first and
    the deadline second: a request that is both cancelled and past its
    deadline aborts as *cancelled* (nobody is listening for a degraded
    partial), keeping the audit/metrics story unambiguous.  ``span`` is the
    parent of the spans the loops open (``scan``); ``None`` is untraced.
    """

    deadline: Deadline | None = None
    cancel: CancelToken | None = None
    span: Span | None = None

    def under(self, span: Span | None) -> "Limits":
        """These limits with ``span`` as the parent of spans opened below."""
        return replace(self, span=span)

    def check(self, where: str = "") -> None:
        """Raise if the token is cancelled or the deadline expired."""
        if self.cancel is not None:
            self.cancel.check(where)
        if self.deadline is not None:
            self.deadline.check(where)


#: No deadline and no token: every check is a no-op.
UNLIMITED = Limits()
