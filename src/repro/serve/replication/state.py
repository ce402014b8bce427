"""Replication role + fencing-epoch state machine, persisted per server.

One :class:`ReplicationManager` per HTTP server process.  It owns three
things:

* **Role**: ``leader`` (serves writes, ships its WAL), ``follower``
  (read-only, pulls and applies), or ``promoting`` (transiently, while a
  follower becomes the leader).  Role and epoch are persisted together in
  ``<root>/replication.json`` with one atomic write, so a crash mid-promote
  restarts in a consistent state -- and a promoted follower restarts as the
  leader it became.  The persisted role always wins over the constructor
  argument: demoting a node is an explicit operation (delete the state
  file), never an accidental flag.

* **Fencing epoch**: a monotonically increasing integer paired with a
  random lineage token minted at every promotion.  Every shipped record and
  snapshot is stamped with it (:mod:`repro.serve.store` holds the per-store
  copy).  The fencing rules are deliberately brutal, because there is no
  consensus layer here: *older epoch -> hard error* (a deposed leader's
  late write), *equal epoch + different lineage -> hard error* (two nodes
  independently claimed the same epoch -- split brain), *newer epoch ->
  adopt and persist before acknowledging anything stamped with it*.

* **The sync-ack coordinator** (leader side): every follower pull of
  ``/v1/replication/deltas?from=N`` doubles as an acknowledgement that the
  follower has durably applied through sequence ``N``.  In ``ack_mode
  "sync"`` the front door blocks feedback acks on
  :meth:`wait_replicated` until that watermark covers the write, which is
  what makes "every acked feedback record survives failover" a theorem
  rather than a race.  Asks never wait -- shipping stays off the read path.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.errors import EpochFencedError, ReadOnlyFollowerError, ReplicationError
from repro.obs.metrics import Registry

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_PROMOTING = "promoting"

_ROLE_VALUES = {ROLE_LEADER: 0, ROLE_FOLLOWER: 1, ROLE_PROMOTING: 2}

STATE_FILE = "replication.json"

_ACK_MODES = ("async", "sync")


def new_lineage() -> str:
    """A fresh lineage token, minted once per promotion (and first boot)."""
    return secrets.token_hex(6)


@dataclass(frozen=True)
class Epoch:
    """One fencing epoch: the monotonic number plus its lineage token."""

    number: int
    lineage: str

    def as_dict(self) -> dict:
        return {"epoch": self.number, "lineage": self.lineage}


class ReplicationManager:
    """Role, fencing epoch, lag accounting, and promotion for one server.

    Parameters
    ----------
    root:
        Server state directory; ``<root>/replication.json`` persists role +
        epoch.  ``None`` keeps the state in memory only (tests).
    role:
        Initial role when no persisted state exists.  A fresh leader mints
        epoch 1; a fresh follower starts at epoch 0 and adopts the leader's
        epoch from the first shipped payload.
    leader_url:
        The leader endpoint a follower pulls from (``host:port`` or a full
        URL); also the ``leader`` hint stamped on read-only rejections.
    ack_mode:
        ``"async"`` (default): feedback acks do not wait for shipping.
        ``"sync"``: feedback acks block until a follower pull confirms the
        write is durably applied remotely (or ``ack_timeout_s`` expires,
        which surfaces as a typed 503 -- applied locally, unconfirmed).
    lag_degraded_s:
        A follower whose replication lag exceeds this reports ``degraded``
        in ``/v1/healthz``.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        role: str = ROLE_LEADER,
        leader_url: str | None = None,
        ack_mode: str = "async",
        ack_timeout_s: float = 10.0,
        lag_degraded_s: float = 30.0,
    ):
        if role not in _ROLE_VALUES:
            raise ReplicationError(f"unknown replication role {role!r}")
        if ack_mode not in _ACK_MODES:
            raise ReplicationError(f"ack_mode must be one of {_ACK_MODES}")
        self.root = None if root is None else Path(root)
        self.leader_url = leader_url
        self.ack_mode = ack_mode
        self.ack_timeout_s = ack_timeout_s
        self.lag_degraded_s = lag_degraded_s
        self._cond = threading.Condition()
        self.role = role
        self.fenced = False
        self.epoch = Epoch(0, "")
        self.registry = registry = Registry()
        registry.gauge(
            "verdict_replication_role",
            "Replication role (0=leader, 1=follower, 2=promoting).",
            fn=lambda: _ROLE_VALUES.get(self.role, 0),
        )
        registry.gauge(
            "verdict_replication_epoch",
            "Current fencing epoch.",
            fn=lambda: self.epoch.number,
        )
        registry.gauge(
            "verdict_replication_fenced",
            "1 when this node was fenced out by a newer leader.",
            fn=lambda: int(self.fenced),
        )
        self._events = registry.counter(
            "verdict_replication_events_total",
            "Replication events, by kind (applies, bootstraps, errors, "
            "promotions, fenced writes).",
            ("event",),
        )
        for event in (
            "records_applied",
            "snapshots_installed",
            "pull_cycles",
            "pull_errors",
            "epoch_rejections",
            "promotions",
            "fenced_writes_rejected",
            "acks_timed_out",
        ):
            self._events.inc(event, by=0)
        # Follower side only: a leader has no lag, so no lag families.
        registry.gauge(
            "verdict_replication_lag_records",
            "Shipped-but-unapplied WAL records, per tenant.",
            ("tenant",),
            fn=lambda: self._lag_series("lag_records"),
        )
        registry.gauge(
            "verdict_replication_lag_seconds",
            "Seconds this follower has been behind the leader, per tenant.",
            ("tenant",),
            fn=lambda: self._lag_series("lag_seconds"),
        )
        #: Leader side: per-tenant highest ``from`` seen in a follower pull
        #: (== "durably applied through this sequence" on the follower).
        self._acked: dict[str, int] = {}
        #: Follower side: per-tenant lag bookkeeping, fed by the puller.
        self._lag: dict[str, dict] = {}
        self._puller = None
        self._tenants = None
        if not self._load_state() and self.role == ROLE_LEADER:
            self.epoch = Epoch(1, new_lineage())
            self._persist()

    @classmethod
    def standalone(cls) -> "ReplicationManager":
        """An in-memory always-leader manager (no persistence, no followers)."""
        return cls()

    # ----------------------------------------------------------------- binding

    def bind(self, tenants=None, puller=None) -> None:
        """Attach the collaborators promotion needs (set after construction)."""
        if tenants is not None:
            self._tenants = tenants
        if puller is not None:
            self._puller = puller

    # ------------------------------------------------------------------- state

    @property
    def state_path(self) -> Path | None:
        return None if self.root is None else self.root / STATE_FILE

    def _load_state(self) -> bool:
        path = self.state_path
        if path is None or not path.is_file():
            return False
        try:
            payload = json.loads(path.read_text())
            role = str(payload["role"])
            epoch = Epoch(int(payload["epoch"]), str(payload.get("lineage", "")))
            fenced = bool(payload.get("fenced", False))
        except (OSError, ValueError, KeyError):
            return False  # unreadable state: fall back to the constructor role
        if role not in _ROLE_VALUES:
            return False
        # A crash mid-promotion restarts as the role it was leaving: the
        # epoch bump is the promotion's commit point, and it is persisted
        # atomically together with the new role.
        self.role = ROLE_FOLLOWER if role == ROLE_PROMOTING else role
        self.epoch = epoch
        self.fenced = fenced
        if self.role == ROLE_LEADER:
            self.leader_url = None
        return True

    def _persist_locked(self) -> None:
        path = self.state_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(".json.tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "role": self.role,
                    "epoch": self.epoch.number,
                    "lineage": self.epoch.lineage,
                    "fenced": self.fenced,
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        try:
            descriptor = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def _persist(self) -> None:
        with self._cond:
            self._persist_locked()

    # -------------------------------------------------------------------- role

    @property
    def is_leader(self) -> bool:
        return self.role == ROLE_LEADER

    @property
    def is_follower(self) -> bool:
        return self.role != ROLE_LEADER

    @property
    def is_writable(self) -> bool:
        return self.role == ROLE_LEADER and not self.fenced

    def require_writable(self) -> None:
        """Raise the typed rejection unless this node may accept writes."""
        with self._cond:
            if self.fenced:
                self._events.inc("fenced_writes_rejected")
                raise EpochFencedError(
                    f"this node was fenced out at epoch {self.epoch.number}: "
                    "a newer leader exists and late writes are rejected",
                    local=(self.epoch.number, self.epoch.lineage),
                )
            if self.role != ROLE_LEADER:
                raise ReadOnlyFollowerError(
                    "this node is a read-only replication follower"
                    + (f"; writes go to {self.leader_url}" if self.leader_url else ""),
                    leader=self.leader_url,
                )

    # ------------------------------------------------------------------ epochs

    def observe_remote_epoch(self, number: int, lineage: str) -> None:
        """Adopt/verify an epoch seen in a shipped payload (follower side)."""
        with self._cond:
            if number < self.epoch.number or (
                number == self.epoch.number
                and self.epoch.lineage
                and lineage
                and lineage != self.epoch.lineage
            ):
                self._events.inc("epoch_rejections")
                raise EpochFencedError(
                    f"remote epoch {number} ({lineage!r}) is stale or "
                    f"divergent against local epoch {self.epoch.number} "
                    f"({self.epoch.lineage!r})",
                    local=(self.epoch.number, self.epoch.lineage),
                    remote=(number, lineage),
                )
            if number > self.epoch.number or (lineage and not self.epoch.lineage):
                self.epoch = Epoch(number, lineage)
                self._persist_locked()

    def fence(self, number: int, lineage: str) -> Epoch:
        """Another node claims a *higher* epoch: stand down from writes.

        Called by ``POST /v1/replication/fence`` (best-effort, from the
        freshly promoted leader).  A fence that is not strictly ahead of the
        local epoch is itself stale and rejected -- fencing must never move
        the epoch backwards.
        """
        with self._cond:
            if number <= self.epoch.number:
                self._events.inc("epoch_rejections")
                raise EpochFencedError(
                    f"fence epoch {number} is not ahead of local epoch "
                    f"{self.epoch.number}",
                    local=(self.epoch.number, self.epoch.lineage),
                    remote=(number, lineage),
                )
            self.epoch = Epoch(number, lineage)
            if self.role == ROLE_LEADER:
                self.fenced = True
            self._persist_locked()
            return self.epoch

    # --------------------------------------------------------------- promotion

    def promote(self) -> dict:
        """Promote this node to leader under a freshly minted fencing epoch.

        Steps: stop the puller (no new records arrive mid-switch), pass the
        ``repl.promote`` fault point, bump the epoch with a new lineage and
        persist it atomically together with the new role (the commit
        point), re-stamp every resident store, then best-effort notify the
        old leader that it is fenced.  Idempotent on an unfenced leader.
        Expects a quiesced follower (manual failover, not consensus): the
        caller stops traffic first.
        """
        with self._cond:
            if self.role == ROLE_LEADER and not self.fenced:
                return self._status_locked()
            if self.role == ROLE_PROMOTING:
                raise ReplicationError("a promotion is already in progress")
            previous_role = self.role
            self.role = ROLE_PROMOTING
            old_leader = self.leader_url
        try:
            if self._puller is not None:
                self._puller.stop()
            faults.inject("repl.promote")
            with self._cond:
                self.epoch = Epoch(self.epoch.number + 1, new_lineage())
                self.role = ROLE_LEADER
                self.fenced = False
                self.leader_url = None
                self._events.inc("promotions")
                self._persist_locked()
                epoch = self.epoch
        except BaseException:
            with self._cond:
                if self.role == ROLE_PROMOTING:
                    self.role = previous_role
            raise
        if self._tenants is not None:
            for _, store in self._tenants.resident_stores():
                store.replica = False
                store.adopt_epoch(epoch.number, epoch.lineage)
        if old_leader:
            self._notify_fence(old_leader, epoch)
        return self.status()

    def _notify_fence(self, leader_url: str, epoch: Epoch) -> None:
        """Tell the deposed leader it is fenced; best-effort (it may be dead)."""
        try:
            from repro.serve.client import VerdictClient, parse_endpoint

            host, port = parse_endpoint(leader_url)
            with VerdictClient(host=host, port=port, timeout_s=5.0, max_retries=0) as client:
                client.fence(epoch.number, epoch.lineage)
        except Exception:
            pass

    # ---------------------------------------------------------------- sync ack

    def note_pull(self, tenant: str, from_seq: int) -> None:
        """Record a follower pull: it has durably applied through ``from_seq``."""
        with self._cond:
            if from_seq > self._acked.get(tenant, -1):
                self._acked[tenant] = from_seq
                self._cond.notify_all()

    def wait_replicated(
        self, tenant: str, seq: int, timeout_s: float | None = None
    ) -> bool:
        """Block until a follower confirms ``seq`` applied; False on timeout."""
        timeout = self.ack_timeout_s if timeout_s is None else timeout_s
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._acked.get(tenant, -1) < seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._events.inc("acks_timed_out")
                    return False
                self._cond.wait(remaining)
        return True

    # --------------------------------------------------------------------- lag

    def update_lag(
        self, tenant: str, applied_seq: int, leader_seq: int, caught_up: bool
    ) -> None:
        with self._cond:
            entry = self._lag.setdefault(
                tenant,
                {
                    "applied_seq": 0,
                    "leader_seq": 0,
                    "behind_since": None,
                    "caught_up_ts": None,
                    "last_error": None,
                },
            )
            entry["applied_seq"] = applied_seq
            entry["leader_seq"] = leader_seq
            now = time.time()
            if caught_up:
                entry["caught_up_ts"] = now
                entry["behind_since"] = None
                entry["last_error"] = None
            elif entry["behind_since"] is None:
                entry["behind_since"] = now

    def note_pull_error(self, tenant: str, error: Exception) -> None:
        with self._cond:
            self._events.inc("pull_errors")
            entry = self._lag.get(tenant)
            if entry is not None:
                entry["last_error"] = f"{type(error).__name__}: {error}"

    def bump(self, counter: str, count: int = 1) -> None:
        self._events.inc(counter, by=count)

    @property
    def counters(self) -> dict[str, int]:
        """Replication events by kind (the ``counters`` of :meth:`status`)."""
        return {event: count for (event,), count in self._events.series().items()}

    def lag_snapshot(self) -> dict[str, dict]:
        """Per-tenant lag: records behind and seconds since falling behind."""
        now = time.time()
        with self._cond:
            return {
                tenant: {
                    "applied_seq": entry["applied_seq"],
                    "leader_seq": entry["leader_seq"],
                    "lag_records": max(0, entry["leader_seq"] - entry["applied_seq"]),
                    "lag_seconds": (
                        0.0
                        if entry["behind_since"] is None
                        else now - entry["behind_since"]
                    ),
                    "last_error": entry["last_error"],
                }
                for tenant, entry in self._lag.items()
            }

    def _lag_series(self, key: str) -> dict | None:
        """One lag figure per tenant; ``None`` (no family) without lag."""
        lag = self.lag_snapshot()
        return {tenant: entry[key] for tenant, entry in lag.items()} or None

    def max_lag(self) -> tuple[int, float]:
        """The worst per-tenant ``(records, seconds)`` replication lag."""
        lag = self.lag_snapshot()
        if not lag:
            return 0, 0.0
        return (
            max(entry["lag_records"] for entry in lag.values()),
            max(entry["lag_seconds"] for entry in lag.values()),
        )

    # ---------------------------------------------------------------- exposure

    def health_reasons(self) -> list[str]:
        """What replication contributes to ``/v1/healthz`` degradation."""
        reasons: list[str] = []
        with self._cond:
            if self.fenced:
                reasons.append(
                    f"fenced out at epoch {self.epoch.number}: writes rejected"
                )
        for tenant, entry in sorted(self.lag_snapshot().items()):
            if entry["lag_seconds"] > self.lag_degraded_s:
                reasons.append(
                    f"replication lag on tenant {tenant}: "
                    f"{entry['lag_seconds']:.1f}s "
                    f"({entry['lag_records']} records) exceeds "
                    f"{self.lag_degraded_s:g}s"
                )
            elif entry["last_error"] is not None:
                reasons.append(
                    f"replication pull failing on tenant {tenant}: "
                    f"{entry['last_error']}"
                )
        return reasons

    def _status_locked(self) -> dict:
        return {
            "role": self.role,
            "epoch": self.epoch.number,
            "lineage": self.epoch.lineage,
            "fenced": self.fenced,
            "leader": self.leader_url,
            "ack_mode": self.ack_mode,
            "acked": dict(self._acked),
            "counters": self.counters,
        }

    def status(self) -> dict:
        with self._cond:
            status = self._status_locked()
        status["tenants"] = self.lag_snapshot()
        return status

    def summary(self) -> dict:
        """The compact form ``/v1/healthz`` embeds."""
        records, seconds = self.max_lag()
        with self._cond:
            return {
                "role": self.role,
                "epoch": self.epoch.number,
                "fenced": self.fenced,
                "max_lag_records": records,
                "max_lag_seconds": seconds,
            }
