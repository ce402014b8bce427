"""The follower's pull-apply loop.

A follower never receives pushes: it *pulls* the leader's WAL through the
HTTP front door (``/v1/replication/deltas``), applies each shipped record
verbatim through the store's byte-identical restore path, and bootstraps
from a shipped snapshot whenever its position predates the leader's delta
log (``409 snapshot_required``) or an applied record does not chain onto
local state (:class:`~repro.errors.ReplicationGapError`).

The pull doubles as the acknowledgement channel: requesting ``from=N``
tells the leader "durably applied through N", which is what the leader's
sync-ack mode blocks on.  The drain loop below therefore always issues one
final (empty) pull after applying records -- that is the confirming ack,
not wasted traffic.
"""

from __future__ import annotations

import threading

from repro import faults
from repro.errors import ReplicationError, ReplicationGapError

#: Delta records requested per pull.
PULL_RECORDS = 64
#: Socket timeout of the leader client, in seconds.
PULL_TIMEOUT_S = 30.0


class ReplicationPuller:
    """Background thread pulling one leader's WAL into local tenant stores.

    Parameters
    ----------
    manager:
        This node's :class:`~repro.serve.replication.state.ReplicationManager`;
        receives epoch observations, lag updates, and counters.
    tenants:
        The local :class:`~repro.serve.http.tenants.TenantManager` (already
        configured to build replica stores while the node is a follower).
    leader_url:
        ``host:port`` (or full URL) of the leader to pull from.
    poll_interval_s:
        Idle sleep between pull cycles once caught up.

    One pull cycle drains each tenant in batches of :data:`PULL_RECORDS`
    delta records until the tail is empty.
    """

    def __init__(
        self,
        manager,
        tenants,
        leader_url: str,
        poll_interval_s: float = 0.5,
        tracer=None,
    ):
        self.manager = manager
        self.tenants = tenants
        self.leader_url = leader_url
        self.poll_interval_s = poll_interval_s
        self.tracer = tracer
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._client = None
        self._client_lock = threading.Lock()

    # --------------------------------------------------------------- lifecycle

    def start(self) -> "ReplicationPuller":
        if self._thread is not None:
            raise ReplicationError("replication puller already started")
        self._thread = threading.Thread(
            target=self._loop, name="replication-puller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop pulling and wait for the in-flight cycle to finish."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout_s)
        with self._client_lock:
            client, self._client = self._client, None
        if client is not None:
            client.close()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.pull_once()
            except Exception as error:
                # A failed cycle (leader down, injected fault) must not kill
                # the loop: followers ride out leader outages and resume.
                self.manager.note_pull_error("*", error)
            self._stop.wait(self.poll_interval_s)

    def _leader_client(self):
        from repro.serve.client import VerdictClient, parse_endpoint

        with self._client_lock:
            if self._client is None:
                host, port = parse_endpoint(self.leader_url)
                self._client = VerdictClient(
                    host=host, port=port, timeout_s=PULL_TIMEOUT_S, max_retries=0
                )
            return self._client

    # ------------------------------------------------------------------- pulls

    def pull_once(self) -> dict[str, int]:
        """One pull cycle: every leader tenant drained to its current tail.

        Returns the number of records applied per tenant (bootstraps count
        as a single ``-1`` marker entry).  Per-tenant failures are recorded
        in the manager and do not stop the other tenants' pulls.
        """
        faults.inject("repl.pull.cycle")
        self.manager.bump("pull_cycles")
        client = self._leader_client()
        applied: dict[str, int] = {}
        for entry in client.list_tenants():
            name = entry["tenant"]
            if self._stop.is_set():
                break
            try:
                applied[name] = self._pull_tenant(client, name)
            except Exception as error:
                self.manager.note_pull_error(name, error)
        return applied

    def _pull_tenant(self, client, name: str) -> int:
        if not self.tenants.exists(name):
            self.tenants.create(name)
        applied = 0
        with self.tenants.lease(name) as tenant:
            while not self._stop.is_set():
                from_seq = tenant.store.sequence
                try:
                    response = client.replication_deltas(
                        name,
                        from_seq,
                        epoch=self.manager.epoch.number,
                        lineage=self.manager.epoch.lineage,
                        max_records=PULL_RECORDS,
                    )
                except Exception as error:
                    if getattr(error, "code", None) == "snapshot_required":
                        self._bootstrap(client, tenant)
                        applied = -1
                        continue
                    raise
                self.manager.observe_remote_epoch(
                    int(response["epoch"]), str(response.get("lineage", ""))
                )
                lines = response.get("lines", [])
                leader_seq = int(response["seq"])
                if lines:
                    try:
                        self._apply(tenant, lines)
                    except ReplicationGapError:
                        # The shipped tail does not chain onto local state
                        # (e.g. the leader compacted past us between the
                        # pull and the apply): start over from a snapshot.
                        self._bootstrap(client, tenant)
                        applied = -1
                        continue
                    applied += len(lines)
                    self.manager.bump("records_applied", len(lines))
                self.manager.update_lag(
                    tenant.name,
                    applied_seq=tenant.store.sequence,
                    leader_seq=leader_seq,
                    caught_up=tenant.store.sequence >= leader_seq,
                )
                if not lines:
                    # Caught up -- and this empty pull carried the ack for
                    # everything applied above (its ``from`` covered it).
                    break
        return applied

    def _apply(self, tenant, lines: list[str]) -> None:
        if self.tracer is not None:
            with self.tracer.request(
                name="replication.apply",
                tenant=tenant.name,
                records=len(lines),
            ):
                tenant.service.replicate_deltas(lines)
        else:
            tenant.service.replicate_deltas(lines)

    def _bootstrap(self, client, tenant) -> None:
        """Install a fresh leader snapshot, replacing all local state."""
        response = client.replication_snapshot(tenant.name)
        self.manager.observe_remote_epoch(
            int(response["epoch"]), str(response.get("lineage", ""))
        )
        if self.tracer is not None:
            with self.tracer.request(
                name="replication.bootstrap", tenant=tenant.name
            ):
                tenant.service.replicate_snapshot(response["document"])
        else:
            tenant.service.replicate_snapshot(response["document"])
        self.manager.bump("snapshots_installed")
        self.manager.update_lag(
            tenant.name,
            applied_seq=tenant.store.sequence,
            leader_seq=int(response["seq"]),
            caught_up=tenant.store.sequence >= int(response["seq"]),
        )


__all__ = ["ReplicationPuller"]
