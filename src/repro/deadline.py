"""Per-request wall-clock deadlines with cooperative cancellation.

A :class:`Deadline` is an absolute monotonic-clock expiry created once per
request.  The serving layer installs it as the *ambient* deadline for the
request's context (:func:`deadline_scope`), and the long-running loops deep
in the stack -- the online-aggregation batch loop and the morsel scan loop
-- poll it between units of work:

* loops that can return a **partial answer** (online aggregation holds a
  valid estimate ± error after every batch) keep the last estimate when
  the deadline expires; the serving layer flags the answer as *degraded*;
* loops that cannot (the exact scan is all-or-nothing) raise
  :class:`~repro.errors.DeadlineExceeded`, which the front door maps to
  HTTP 504.

Cancellation is cooperative by design: Python threads cannot be safely
killed, so every cancellable loop opts in with one cheap ``expired`` check
per batch/morsel.  The ambient deadline and token live in
``contextvars``, like the ambient trace span: ``contextvars.copy_context()``
carries them onto a worker (``VerdictService.submit`` does this), while a
bare ``threading.Thread`` starts with an empty context and sees neither.

A :class:`CancelToken` rides the same ambient mechanism and the same
checkpoints: the front door creates one per request, arms it when
``POST /v1/cancel/<request_id>`` arrives or when the client socket reports
a disconnect, and ``check_deadline`` raises
:class:`~repro.errors.QueryCancelled` at the next poll.  Unlike a deadline
expiry, a cancellation never yields a partial answer -- nobody is
listening -- so the serving layer aborts without caching or recording.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import DeadlineExceeded, QueryCancelled


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

    @property
    def remaining_s(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if this deadline has expired."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s expired"
                + (f" during {where}" if where else "")
            )


_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)
_CANCEL: contextvars.ContextVar[CancelToken | None] = contextvars.ContextVar(
    "repro_cancel", default=None
)


def current_deadline() -> Deadline | None:
    """The ambient deadline of the calling context, if any."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the calling context's ambient deadline.

    ``None`` is accepted (and is a no-op) so callers can wrap requests
    uniformly whether or not a deadline was requested.  Scopes nest; the
    previous ambient deadline is restored on exit.
    """
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


def current_cancel() -> CancelToken | None:
    """The ambient cancel token of the calling context, if any."""
    return _CANCEL.get()


@contextmanager
def cancel_scope(token: CancelToken | None) -> Iterator[CancelToken | None]:
    """Install ``token`` as the calling context's ambient cancel token.

    Mirrors :func:`deadline_scope`: ``None`` is a no-op, scopes nest, and
    the token follows the request wherever its context is copied.
    """
    reset = _CANCEL.set(token)
    try:
        yield token
    finally:
        _CANCEL.reset(reset)


def check_deadline(where: str = "") -> None:
    """Raise if the ambient deadline expired or the ambient token cancelled.

    Cancellation is checked first: a request that is both cancelled and past
    its deadline aborts as *cancelled* (nobody is listening for a degraded
    partial), keeping the audit/metrics story unambiguous.
    """
    token = current_cancel()
    if token is not None:
        token.check(where)
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(where)
