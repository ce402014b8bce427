"""Per-request span trees over ``contextvars`` ambient state.

A request entering the front door gets a **request id** (minted, or accepted
from an ``X-Request-Id`` header) and a **root span**.  The root is made
ambient for the request's context via a ``contextvars.ContextVar``, so every
layer underneath -- admission wait, planner, each route attempt, partition
scans, GP inference, cache lookups -- opens child spans with a plain
``with span("name", attr=...)`` and zero signature plumbing.  Context
propagation across the service's worker pool uses
``contextvars.copy_context()`` (see ``VerdictService.submit``), the same
mechanism the ambient deadline rides.

Each span records wall time (``perf_counter``), CPU time of its thread
(``thread_time``), a status (``ok`` / ``error``), and free-form attributes
(rows scanned, partitions pruned, predicted vs observed cost, ...).  When
the root span closes, the finished tree goes three places:

* a bounded in-memory **ring** keyed by request id (``/v1/trace/<id>``
  serves post-hoc lookups from it);
* an optional **JSONL trace log**, one line per request -- the durable
  predicted-vs-observed record the adaptive planner will train on;
* an optional **slow-query log**, for traces whose wall time exceeds a
  configurable threshold (full span tree, so the offending scan or solve is
  identifiable without reproducing the request).

Cost discipline: tracing must be free when it is off.  ``span()`` with no
active trace reads one contextvar and returns ``None`` -- no allocation, no
lock -- mirroring the one-global-read hot path of :mod:`repro.faults`.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import re
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

#: Request ids are path- and log-safe by construction; anything else offered
#: in an ``X-Request-Id`` header is discarded and a fresh id minted.
REQUEST_ID_RE = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: The ambient span of the current context (``None`` = tracing inactive).
_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

#: The root span of the current context's trace (set by ``Tracer.request``).
_ROOT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_root_span", default=None
)


def valid_request_id(candidate: str) -> bool:
    """Whether a caller-supplied request id is safe to adopt."""
    return bool(REQUEST_ID_RE.match(candidate))


def mint_request_id() -> str:
    """A fresh, unique, log-safe request id."""
    return os.urandom(16).hex()


class Span:
    """One timed operation in a request's trace tree.

    Not constructed directly -- use :func:`span` (children) or
    :meth:`Tracer.request` (roots).  Attribute writes go through
    :meth:`set`; readers should treat spans as immutable once finished.
    """

    __slots__ = (
        "name",
        "request_id",
        "attrs",
        "children",
        "status",
        "error",
        "started_ts",
        "_started_wall",
        "_started_cpu",
        "wall_s",
        "cpu_s",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        request_id: str | None = None,
        tracer: "Tracer | None" = None,
        attrs: dict | None = None,
    ):
        self.name = name
        self.request_id = request_id
        self.attrs: dict = attrs or {}
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self.started_ts = time.time()
        self._started_wall = time.perf_counter()
        self._started_cpu = time.thread_time()
        self.wall_s: float | None = None
        self.cpu_s: float | None = None
        self._tracer = tracer

    # ------------------------------------------------------------------ public

    def set(self, **attrs) -> None:
        """Attach attributes (rows scanned, predicted cost, ...) to the span."""
        self.attrs.update(attrs)

    def finish(self, error: BaseException | None = None) -> None:
        if self.wall_s is not None:  # already finished
            return
        self.wall_s = time.perf_counter() - self._started_wall
        self.cpu_s = time.thread_time() - self._started_cpu
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    def to_dict(self) -> dict:
        """Plain-data rendering of the (sub)tree; live spans report wall so far."""
        data: dict = {
            "name": self.name,
            "ts": self.started_ts,
            "wall_s": (
                self.wall_s
                if self.wall_s is not None
                else time.perf_counter() - self._started_wall
            ),
            "cpu_s": (
                self.cpu_s
                if self.cpu_s is not None
                else time.thread_time() - self._started_cpu
            ),
            "status": self.status,
        }
        if self.request_id is not None:
            data["request_id"] = self.request_id
        if self.error is not None:
            data["error"] = self.error
        if self.attrs:
            # Strict JSON spells no inf or NaN (an unbounded answer's error
            # bound is inf): such an attribute renders as null.
            data["attrs"] = {
                key: None if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in self.attrs.items()
            }
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data


# --------------------------------------------------------------------------- #
# Ambient span API (the instrumented layers call only these)
# --------------------------------------------------------------------------- #


def current_span() -> Span | None:
    """The innermost active span of this context, or ``None``."""
    return _ACTIVE.get()


def current_trace() -> Span | None:
    """The *root* span of the active trace, or ``None``."""
    return _ROOT.get()


def current_request_id() -> str | None:
    """The request id of the active trace, or ``None``."""
    root = current_trace()
    return root.request_id if root is not None else None


class span:
    """Context manager opening a child span under the ambient span.

    With no trace active this is a no-op costing one contextvar read::

        with span("scan", table=name) as s:
            ...
            if s is not None:
                s.set(rows_scanned=rows)

    The ``as`` target is the :class:`Span` (or ``None`` when tracing is
    off); exceptions mark the span ``error`` and propagate.
    """

    __slots__ = ("_name", "_attrs", "_span", "_token")

    def __init__(self, name: str, **attrs):
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._token = None

    def __enter__(self) -> Span | None:
        parent = _ACTIVE.get()
        if parent is None:
            return None
        child = Span(self._name, attrs=self._attrs or None)
        parent.children.append(child)
        self._span = child
        self._token = _ACTIVE.set(child)
        return child

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None:
            return
        _ACTIVE.reset(self._token)
        self._span.finish(error=exc)


def event(name: str, **attrs) -> None:
    """Record a zero-duration child span (a breaker skip, a cache miss)."""
    parent = _ACTIVE.get()
    if parent is None:
        return
    child = Span(name, attrs=attrs or None)
    child.wall_s = 0.0
    child.cpu_s = 0.0
    parent.children.append(child)


def set_attrs(**attrs) -> None:
    """Attach attributes to the innermost active span (no-op untraced)."""
    active = _ACTIVE.get()
    if active is not None:
        active.attrs.update(attrs)


# --------------------------------------------------------------------------- #
# Tracer: root spans, the ring, and the logs
# --------------------------------------------------------------------------- #


class _RequestScope:
    """Context manager for one root span (returned by :meth:`Tracer.request`)."""

    __slots__ = ("_tracer", "_root", "_token", "_root_token")

    def __init__(self, tracer: "Tracer", root: Span):
        self._tracer = tracer
        self._root = root
        self._token = None
        self._root_token = None

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set(self._root)
        self._root_token = _ROOT.set(self._root)
        return self._root

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._token)
        _ROOT.reset(self._root_token)
        self._root.finish(error=exc)
        self._tracer._store(self._root)


class Tracer:
    """Collects finished traces: bounded ring + JSONL trace/slow-query logs.

    Parameters
    ----------
    ring_capacity:
        Finished traces kept in memory for ``get()`` lookups; the oldest is
        evicted (and counted ``dropped``) beyond this.
    log_path:
        JSONL trace log, one line per finished trace (``None`` = no file).
    slow_log_path, slow_threshold_s:
        Traces whose root wall time reaches the threshold are *also*
        appended to the slow-query log.  A threshold with no path counts
        slow queries without writing them.

    All methods are thread-safe; file writes swallow ``OSError`` (a full
    disk must never fail the request being traced).
    """

    def __init__(
        self,
        ring_capacity: int = 256,
        log_path: str | os.PathLike[str] | None = None,
        slow_log_path: str | os.PathLike[str] | None = None,
        slow_threshold_s: float | None = None,
    ):
        if ring_capacity <= 0:
            raise ValueError("ring_capacity must be positive")
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be non-negative")
        self.ring_capacity = ring_capacity
        self.slow_threshold_s = slow_threshold_s
        self.finished = 0
        self.dropped = 0
        self.slow_queries = 0
        self._ring: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._log = self._open(log_path)
        self._slow_log = self._open(slow_log_path)
        self.log_path = None if log_path is None else Path(log_path)
        self.slow_log_path = None if slow_log_path is None else Path(slow_log_path)

    @staticmethod
    def _open(path: str | os.PathLike[str] | None):
        if path is None:
            return None
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ public

    def request(
        self, request_id: str | None = None, name: str = "request", **attrs
    ) -> _RequestScope:
        """Open a root span; entering makes it ambient, exiting stores it.

        ``request_id`` is adopted when valid (see :data:`REQUEST_ID_RE`),
        otherwise a fresh one is minted -- callers can read it off the
        returned span's ``request_id``.
        """
        if request_id is None or not valid_request_id(request_id):
            request_id = mint_request_id()
        root = Span(name, request_id=request_id, tracer=self, attrs=attrs or None)
        return _RequestScope(self, root)

    def get(self, request_id: str) -> dict | None:
        """The finished trace for one request id, or ``None`` if unknown."""
        with self._lock:
            return self._ring.get(request_id)

    def stats(self) -> dict:
        with self._lock:
            return {
                "finished": self.finished,
                "stored": len(self._ring),
                "dropped": self.dropped,
                "slow_queries": self.slow_queries,
                "ring_capacity": self.ring_capacity,
                "slow_threshold_s": self.slow_threshold_s,
            }

    def close(self) -> None:
        with self._lock:
            for handle in (self._log, self._slow_log):
                if handle is not None and not handle.closed:
                    handle.close()

    # ----------------------------------------------------------------- private

    def _store(self, root: Span) -> None:
        data = root.to_dict()
        slow = (
            self.slow_threshold_s is not None
            and root.wall_s is not None
            and root.wall_s >= self.slow_threshold_s
        )
        line = None
        if self._log is not None or (slow and self._slow_log is not None):
            line = json.dumps(data, default=str) + "\n"
        with self._lock:
            self.finished += 1
            self._ring[root.request_id] = data
            self._ring.move_to_end(root.request_id)
            while len(self._ring) > self.ring_capacity:
                self._ring.popitem(last=False)
                self.dropped += 1
            if slow:
                self.slow_queries += 1
            try:
                if self._log is not None and not self._log.closed:
                    self._log.write(line)
                    self._log.flush()
                if slow and self._slow_log is not None and not self._slow_log.closed:
                    self._slow_log.write(line)
                    self._slow_log.flush()
            except OSError:
                pass


def read_jsonl(path: str | os.PathLike[str]) -> Iterator[dict]:
    """Parse a JSONL trace log (test/tooling helper; skips torn last lines)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue
