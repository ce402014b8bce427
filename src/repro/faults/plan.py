"""Fault plans: seeded, counted, env-activatable fault rules.

See :mod:`repro.faults` for the overview.  This module holds the mechanics:
the registry of known fault-point names, the rule/plan data model, the
process-global active plan, and the :func:`inject` hot path.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass

from repro.errors import FaultInjectedError

#: Environment variable holding a plan: inline JSON or ``@/path/to/file``.
ENV_VAR = "REPRO_FAULTS"

#: Exit code of an injected ``kill`` -- distinct from real signal deaths
#: (SIGKILL exits 137) so crash harnesses can assert the fault fired.
FAULT_EXIT_CODE = 86

#: Every fault point compiled into the stack.  Plans naming any other point
#: are rejected at parse time: a typo must fail the test that made it, not
#: silently never fire.
KNOWN_POINTS = frozenset(
    {
        # --- synopsis store (serve/store.py)
        "store.delta.append",  # writing one delta record (supports "torn")
        "store.delta.fsync",  # before fsyncing the delta log
        "store.delta.truncate",  # after snapshot publish, before log truncation
        "store.snapshot.write",  # writing the snapshot tmp file (supports "torn")
        "store.snapshot.fsync",  # before fsyncing the snapshot tmp file
        "store.snapshot.rename",  # before the tmp -> snapshot.json publish rename
        "store.replay.record",  # applying one delta record during restore
        "store.dir.fsync",  # before fsyncing a directory after a rename publish
        # --- replication (serve/replication/, serve/http/server.py)
        "repl.ship.snapshot",  # leader serving a bootstrap snapshot (supports "torn")
        "repl.ship.deltas",  # leader serving a non-empty delta tail (supports "torn")
        "repl.pull.cycle",  # follower starting one pull cycle
        "repl.apply.record",  # follower appending one shipped delta record
        "repl.apply.snapshot",  # follower installing a shipped snapshot
        "repl.promote",  # during promotion, after the puller stops
        # --- serving layer (serve/service.py)
        "service.route.learned",  # executing the learned route
        "service.route.online_agg",  # executing the online-aggregation route
        "service.route.exact",  # executing the exact route
        "service.train",  # one background/foreground training round
        "service.flush",  # flushing learned state to the store
        # --- engines
        "aqp.batch",  # before each online-aggregation sample batch
        # --- HTTP front door (serve/http/server.py)
        "http.handler",  # dispatching one HTTP request
        "http.disconnect",  # the client-disconnect probe of an in-flight ask
        # --- resource governor (serve/governor.py)
        "governor.shed",  # shedding one request over a tenant quota
        "governor.cancel",  # delivering one POST /v1/cancel cancellation
    }
)

_ACTIONS = frozenset({"error", "kill", "delay", "torn"})


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger: at ``point``, do ``action``.

    Parameters
    ----------
    point:
        A name from :data:`KNOWN_POINTS`.
    action:
        ``"error"`` | ``"kill"`` | ``"delay"`` | ``"torn"``.
    after:
        First hit (1-based, per point) at which the rule may fire --
        ``after=3`` skips the first two hits.
    times:
        Maximum number of firings (``None`` = unlimited).
    probability:
        Firing probability per eligible hit, drawn from a per-rule seeded
        stream (so the decision sequence is reproducible).
    delay_s:
        Sleep duration for ``delay`` actions.
    message:
        Carried into the raised error / returned directive.
    """

    point: str
    action: str
    after: int = 1
    times: int | None = None
    probability: float = 1.0
    delay_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r} "
                f"(known: {', '.join(sorted(KNOWN_POINTS))})"
            )
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (known: {sorted(_ACTIONS)})"
            )
        if self.after < 1:
            raise ValueError("after must be >= 1 (hits are 1-based)")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 when given")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class FaultDirective:
    """A fired rule handed back to the call site for caller-side actions."""

    rule: FaultRule

    @property
    def action(self) -> str:
        return self.rule.action


class FaultPlan:
    """A set of rules plus per-point hit/fire accounting (thread-safe)."""

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = (), seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._rngs = [
            random.Random(f"{seed}:{index}:{rule.point}")
            for index, rule in enumerate(self.rules)
        ]

    # ------------------------------------------------------------------ public

    def check(self, point: str) -> FaultRule | None:
        """Count one hit of ``point``; return the rule to fire, if any."""
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for index, rule in enumerate(self.rules):
                if rule.point != point or hit < rule.after:
                    continue
                fired = self._fired.get(index, 0)
                if rule.times is not None and fired >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rngs[index].random() >= rule.probability:
                    continue
                self._fired[index] = fired + 1
                return rule
        return None

    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached under this plan."""
        with self._lock:
            return self._hits.get(point, 0)

    def snapshot(self) -> dict:
        """Hit and firing counters, for assertions and metrics."""
        with self._lock:
            return {
                "hits": dict(self._hits),
                "fired": {
                    self.rules[index].point: count
                    for index, count in self._fired.items()
                },
            }


# --------------------------------------------------------------------------- #
# Plan parsing
# --------------------------------------------------------------------------- #


def plan_from_json(payload: str | dict) -> FaultPlan:
    """Build a plan from JSON text (or an already-parsed dict).

    Schema::

        {"seed": 7,
         "rules": [{"point": "store.delta.append", "action": "torn",
                    "after": 2, "times": 1, "probability": 1.0,
                    "delay_s": 0.0, "message": "..."}]}
    """
    if isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError("fault plan must be a JSON object")
    unknown = set(payload) - {"seed", "rules"}
    if unknown:
        raise ValueError(f"unknown fault-plan fields {sorted(unknown)}")
    rules = []
    for spec in payload.get("rules", []):
        if not isinstance(spec, dict):
            raise ValueError("each fault rule must be a JSON object")
        extra = set(spec) - {
            "point",
            "action",
            "after",
            "times",
            "probability",
            "delay_s",
            "message",
        }
        if extra:
            raise ValueError(f"unknown fault-rule fields {sorted(extra)}")
        rules.append(FaultRule(**spec))
    return FaultPlan(rules, seed=int(payload.get("seed", 0)))


def plan_from_env(environ: dict | None = None) -> FaultPlan | None:
    """The plan named by ``REPRO_FAULTS``, or ``None`` when unset/empty."""
    value = (environ if environ is not None else os.environ).get(ENV_VAR, "").strip()
    if not value:
        return None
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as handle:
            value = handle.read()
    return plan_from_json(value)


# --------------------------------------------------------------------------- #
# Process-global active plan + the inject hot path
# --------------------------------------------------------------------------- #

#: The active plan.  Initialised from the environment at import so a server
#: subprocess launched with ``REPRO_FAULTS=...`` injects without any code
#: cooperation from its entry point.
_PLAN: FaultPlan | None = plan_from_env()


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (tests pair this with :func:`clear`)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (restores the production fast path)."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    return _PLAN


def hard_exit(code: int = FAULT_EXIT_CODE) -> None:
    """Die *now*: no atexit hooks, no finally blocks, no flushing.

    A module-level function (not an inlined ``os._exit``) so in-process
    tests can monkeypatch it to observe would-be crashes.
    """
    os._exit(code)


def inject(point: str, **context) -> FaultDirective | None:
    """The fault point: a no-op unless an installed rule fires here.

    The disabled path -- the only one production ever takes -- is one
    global read and a ``None`` check.  When a rule fires, ``error`` raises
    :class:`~repro.errors.FaultInjectedError`, ``kill`` calls
    :func:`hard_exit`, ``delay`` sleeps, and anything else (``torn``) is
    returned as a :class:`FaultDirective` for the call site to interpret.
    ``context`` keyword values are carried into the error message.
    """
    plan = _PLAN
    if plan is None:
        return None
    rule = plan.check(point)
    if rule is None:
        return None
    detail = rule.message or ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
    if rule.action == "delay":
        time.sleep(rule.delay_s)
        return None
    if rule.action == "error":
        raise FaultInjectedError(
            f"injected fault at {point}" + (f" ({detail})" if detail else "")
        )
    if rule.action == "kill":
        hard_exit(FAULT_EXIT_CODE)
    return FaultDirective(rule)
