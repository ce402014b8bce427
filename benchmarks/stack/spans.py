"""Outside-in span recorder: times the call at each layer boundary.

Nothing in ``src/`` knows about this file.  :data:`WRAP_POINTS` is the one
declarative table of layer boundaries; :meth:`SpanRecorder.install` replaces
each named attribute with a timing wrapper and :meth:`SpanRecorder.uninstall`
puts the originals back.  A wrap point that a refactor has removed is listed
in :attr:`SpanRecorder.missing` (its metrics then read as not measured) and
never fails the run: the end-to-end metrics depend on none of this.

A span is ``(id, name, start, end, parent, request, thread, attrs)``.  The
parent is the span open on the same thread when this one started; a span with
no parent is a *request* root and every descendant carries its id.  Spans stay
in memory and are written as JSONL only when the pass is over.  A layer's self
time is its span minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            "attrs": self.attrs or {},
        }


# --------------------------------------------------------------------------- #
# Wrap table
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WrapPoint:
    """One layer boundary: the span it produces and the attribute it wraps.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``kind`` says
    what is timed: ``call`` the call itself; ``enter`` the ``__enter__`` of the
    context manager the call returns (waiting for a lease or a slot, not
    holding it); ``iterate`` each ``next()`` of the iterator it returns.
    ``attrs(receiver, result)`` may add counts read off the result.
    """

    span: str
    target: str
    kind: str = "call"
    attrs: Callable[[object, object], dict] | None = None


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _answer_attrs(_, answer) -> dict:
    return {"route": answer.route.value, "from_cache": answer.from_cache}


def _inference_attrs(_, answer) -> dict:
    cells = sum(len(row.estimates) for row in answer.rows) if answer.supported else 0
    return {"cells": cells, "improved": answer.improvement_count() if cells else 0}


WRAP_POINTS: tuple[WrapPoint, ...] = (
    # Both importers of the parser bind the function by name, so both names
    # are wrapped: the handler's parse and the engine's.
    WrapPoint("sqlparser.parse", "repro.serve.http.server:parse_query"),
    WrapPoint("sqlparser.parse", "repro.core.engine:parse_query"),
    WrapPoint("core.engine.check", "repro.core.engine:VerdictEngine.check"),
    WrapPoint("serve.planner.plan", "repro.serve.planner:QueryPlanner.plan"),
    WrapPoint(
        "aqp.next",
        "repro.aqp.online_agg:OnlineAggregationEngine.run",
        kind="iterate",
        attrs=lambda _, raw: {"rows_scanned": raw.rows_scanned},
    ),
    WrapPoint(
        "core.inference.process_answer",
        "repro.core.engine:VerdictEngine.process_answer",
        attrs=_inference_attrs,
    ),
    WrapPoint(
        "core.engine.record",
        "repro.core.engine:VerdictEngine.record",
        attrs=lambda _, added: {"snippets": added},
    ),
    WrapPoint("core.learning.train", "repro.core.engine:VerdictEngine.train"),
    WrapPoint("db.executor.execute", "repro.db.executor:ExactExecutor.execute"),
    WrapPoint(
        "serve.service.query",
        "repro.serve.service:VerdictService.query",
        attrs=_answer_attrs,
    ),
    WrapPoint(
        "serve.store.flush",
        "repro.serve.store:SynopsisStore.flush",
        attrs=lambda store, kind: {
            "kind": kind,
            "delta_bytes": _file_size(store.delta_path),
        },
    ),
    WrapPoint(
        "serve.store.save_snapshot",
        "repro.serve.store:SynopsisStore.save_snapshot",
        attrs=lambda store, _: {"bytes": _file_size(store.snapshot_path)},
    ),
    WrapPoint("serve.store.load_into", "repro.serve.store:SynopsisStore.load_into"),
    # The HTTP front door (only the traced server child ever runs these).
    WrapPoint("serve.http.server.handle", "repro.serve.http.server:_Handler.do_POST"),
    WrapPoint("serve.http.protocol.parse_ask", "repro.serve.http.protocol:parse_ask"),
    WrapPoint(
        "serve.http.protocol.answer_to_state",
        "repro.serve.http.protocol:answer_to_state",
    ),
    WrapPoint("serve.http.server.respond", "repro.serve.http.server:_Handler._respond"),
    WrapPoint(
        "serve.http.tenants.lease",
        "repro.serve.http.tenants:TenantManager.lease",
        kind="enter",
    ),
    WrapPoint("serve.governor.price", "repro.serve.governor:ResourceGovernor.price_query"),
    WrapPoint(
        "serve.governor.admit",
        "repro.serve.governor:ResourceGovernor.admit",
        kind="enter",
    ),
    WrapPoint(
        "serve.http.admission.admit",
        "repro.serve.http.admission:AdmissionController.admit",
        kind="enter",
    ),
    WrapPoint("serve.http.audit.record", "repro.serve.http.audit:AuditLog.record"),
)


# --------------------------------------------------------------------------- #
# Recorder
# --------------------------------------------------------------------------- #


class _TimedContext:
    """Times ``__enter__`` of a wrapped context manager; exit passes through."""

    def __init__(self, recorder: "SpanRecorder", name: str, inner):
        self._recorder, self._name, self._inner = recorder, name, inner

    def __enter__(self):
        with self._recorder.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class SpanRecorder:
    """Collects spans from every thread; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ---------------------------------------------------------------- wrapping

    def install(self, points: tuple[WrapPoint, ...] = WRAP_POINTS) -> None:
        """Wrap every resolvable point; remember the rest as missing."""
        for point in points:
            try:
                owner, attribute, original = _resolve(point.target)
            except (ImportError, AttributeError):
                self.missing.append(point.span)
                continue
            setattr(owner, attribute, self._wrapper(point, original))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _wrapper(self, point: WrapPoint, original):
        recorder, name, extract = self, point.span, point.attrs

        if point.kind == "enter":

            @functools.wraps(original)
            def wrapped_enter(*args, **kwargs):
                return _TimedContext(recorder, name, original(*args, **kwargs))

            return wrapped_enter

        if point.kind == "iterate":

            @functools.wraps(original)
            def wrapped_iterate(*args, **kwargs):
                iterator = iter(original(*args, **kwargs))
                while True:
                    with recorder.span(name) as open_span:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            open_span.discard()
                            return
                        if extract is not None:
                            open_span.attrs = extract(args[0], item)
                    yield item

            return wrapped_iterate

        @functools.wraps(original)
        def wrapped_call(*args, **kwargs):
            with recorder.span(name) as open_span:
                result = original(*args, **kwargs)
                if extract is not None:
                    open_span.attrs = extract(args[0] if args else None, result)
                return result

        return wrapped_call

    # ------------------------------------------------------------------ output

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")

    def extend_from(self, path: Path) -> None:
        """Merge spans another process dumped (ids are re-based to stay unique)."""
        base = next(self._ids) + 1_000_000
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                raw = json.loads(line)
                self.spans.append(
                    Span(
                        id=raw["id"] + base,
                        name=raw["name"],
                        start=raw["start"],
                        end=raw["end"],
                        parent=None if raw["parent"] is None else raw["parent"] + base,
                        request=raw["request"] + base,
                        thread=raw["thread"],
                        attrs=raw["attrs"] or None,
                    )
                )


class _OpenSpan:
    """Context manager around one span; ``attrs`` may be set while open."""

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder, self._name = recorder, name
        self.attrs: dict | None = None
        self._keep = True

    def discard(self) -> None:
        self._keep = False

    def __enter__(self) -> "_OpenSpan":
        recorder = self._recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else None
        span_id = next(recorder._ids)
        self._span = Span(
            id=span_id,
            name=self._name,
            start=0.0,
            end=0.0,
            parent=parent.id if parent else None,
            request=parent.request if parent else span_id,
            thread=threading.get_ident(),
        )
        stack.append(self._span)
        self._span.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        span = self._span
        span.end = time.perf_counter()
        self._recorder._stack().pop()
        if self._keep:
            span.attrs = self.attrs
            self._recorder.spans.append(span)  # list.append is atomic


def _resolve(target: str) -> tuple[object, str, object]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # ``__dict__`` (not getattr) keeps staticmethod/classmethod descriptors
    # intact when the original is put back.
    original = vars(owner)[attribute] if attribute in vars(owner) else getattr(owner, attribute)
    if not callable(original):
        raise AttributeError(f"{target} is not callable")
    return owner, attribute, original


# --------------------------------------------------------------------------- #
# Reading spans
# --------------------------------------------------------------------------- #


class SpanIndex:
    """Spans grouped by name, with the time each span's direct children cover."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        children: dict[int, float] = defaultdict(float)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                children[span.parent] += span.seconds
        self._children = children

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def seconds(self, name: str) -> list[float]:
        return [span.seconds for span in self.named(name)]

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self._children.get(span.id, 0.0)

    def child_seconds(self, span: Span) -> float:
        return self._children.get(span.id, 0.0)
