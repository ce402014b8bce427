"""Failover matrix: kill the leader at every shipping fault point, promote.

The acceptance test of the replication subsystem.  For each fault row a
real leader subprocess (sync-ack mode, fault armed via ``REPRO_FAULTS``)
and a real follower subprocess (``--follow``) are started; client traffic
drives feedback records through the leader until the armed point kills it
(:data:`~repro.faults.FAULT_EXIT_CODE`); the follower is promoted; and the
zero-acked-loss contract is checked:

* every record the client saw *acked* survives on the promoted follower
  (sync-ack means an ack implies the follower durably applied the write);
* the promoted follower's answers are byte-identical (by
  :func:`answer_fingerprint`) to a never-failed oracle server that replayed
  the seed plus exactly the surviving prefix of the drive -- some ``K``
  records with ``acked <= K <= attempted``.  The follower may additionally
  be empty (bootstrap never completed) only when nothing was acked.

The full matrix is long; by default a two-row smoke subset runs (one torn
ship, one leader WAL kill).  Set ``REPLICATION=full`` (the dedicated CI
job does) to run every row.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FAULT_EXIT_CODE
from repro.serve.client import ClientError, VerdictClient
from repro.serve.http.protocol import answer_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[3]

TENANT = "acme"

INGEST_SQL = [
    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
    for low in (1, 12, 25, 38)
]

SEED_DELTA_SQL = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 6 AND week <= 21",
    "SELECT AVG(revenue) FROM sales WHERE week >= 30 AND week <= 44",
]

#: The records driven against the fault-armed leader, in order.
DRIVE_SQL = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 17",
    "SELECT AVG(revenue) FROM sales WHERE week >= 22 AND week <= 39",
    "SELECT COUNT(*) FROM sales WHERE week >= 11 AND week <= 47",
]

TRACE_SQL = [
    "SELECT COUNT(*) FROM sales",
    "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 27",
    "SELECT AVG(revenue) FROM sales WHERE week >= 20 AND week <= 40",
    "SELECT SUM(revenue) FROM sales WHERE week >= 5 AND week <= 18",
]

#: (fault point, action) armed on the *leader* -- every shipping-path and
#: store point a leader can die at while a follower depends on it.
MATRIX = [
    ("repl.ship.deltas", "torn"),
    ("repl.ship.deltas", "kill"),
    ("repl.ship.snapshot", "torn"),
    ("repl.ship.snapshot", "kill"),
    ("store.delta.append", "kill"),
    ("store.delta.append", "torn"),
    ("store.delta.fsync", "kill"),
    ("store.snapshot.write", "torn"),
    ("store.snapshot.rename", "kill"),
    ("store.dir.fsync", "kill"),
    ("store.replay.record", "kill"),
]

#: One torn ship (follower must reject the mangled record) and one leader
#: WAL kill (the acked/attempted boundary).
SMOKE = {
    ("repl.ship.deltas", "torn"),
    ("store.delta.append", "kill"),
}

FULL_MATRIX = os.environ.get("REPLICATION", "").lower() == "full"


def matrix_params():
    for point, action in MATRIX:
        marks = []
        if not FULL_MATRIX and (point, action) not in SMOKE:
            marks.append(
                pytest.mark.skip(
                    reason="full matrix runs in the replication-matrix CI job; set REPLICATION=full"
                )
            )
        yield pytest.param(point, action, id=f"{point}:{action}", marks=marks)


class ServerProcess:
    """One front-door subprocess, optionally fault-armed and/or a follower."""

    def __init__(
        self,
        root: Path,
        fault_plan: dict | None = None,
        extra_args: list[str] | None = None,
    ):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        environment.pop("REPRO_FAULTS", None)
        if fault_plan is not None:
            environment["REPRO_FAULTS"] = json.dumps(fault_plan)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve.http",
                "--port",
                "0",
                "--root",
                str(root),
                "--workload",
                "sales",
                "--rows",
                "2000",
                "--batches",
                "3",
                "--seed",
                "7",
                "--flush-every",
                "1",
            ]
            + (extra_args or []),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=environment,
        )
        ready_line = self.process.stdout.readline()
        if not ready_line:
            raise AssertionError(
                f"server died before readiness: {self.process.stderr.read()}"
            )
        self.port = json.loads(ready_line)["listening"]["port"]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


def capture_fingerprints(port: int) -> list[bytes]:
    with VerdictClient(port=port, tenant=TENANT, timeout_s=120.0) as client:
        return [
            answer_fingerprint(client.ask(sql, record=False)) for sql in TRACE_SQL
        ]


@pytest.fixture(scope="module")
def seeded_root(tmp_path_factory) -> Path:
    """A leader state root with learned state, a snapshot, and live deltas."""
    root = tmp_path_factory.mktemp("failover-seed")
    server = ServerProcess(root)
    try:
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            client.create_tenant()
            for sql in INGEST_SQL:
                assert client.record(sql) is True
            assert client.train()["trained"] is True
            assert client.snapshot()["snapshot"] == "snapshot"
            for sql in SEED_DELTA_SQL:
                assert client.record(sql) is True
    finally:
        server.kill()
    return root


@pytest.fixture(scope="module")
def oracle(seeded_root, tmp_path_factory) -> dict:
    """Never-failed reference fingerprints for every reachable end state.

    Key ``j`` (int): the seed plus the first ``j`` drive records.  Key
    ``"empty"``: a fresh tenant with no learned state at all (a follower
    whose bootstrap never completed).
    """
    fingerprints: dict = {}
    root = tmp_path_factory.mktemp("failover-oracle")
    shutil.rmtree(root)
    shutil.copytree(seeded_root, root)
    server = ServerProcess(root)
    try:
        fingerprints[0] = capture_fingerprints(server.port)
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            for j, sql in enumerate(DRIVE_SQL, start=1):
                assert client.record(sql) is True
                fingerprints[j] = capture_fingerprints(server.port)
    finally:
        server.terminate()
    empty_root = tmp_path_factory.mktemp("failover-empty")
    server = ServerProcess(empty_root)
    try:
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            client.create_tenant()
        fingerprints["empty"] = capture_fingerprints(server.port)
    finally:
        server.terminate()
    return fingerprints


def drive_until_death(leader: ServerProcess) -> tuple[int, int]:
    """Feed records (then a snapshot) into the armed leader until it dies.

    Returns ``(attempted, acked)`` record counts.  In sync-ack mode an ack
    only returns after a follower pull confirmed the durable remote apply,
    so ``acked`` is exactly the zero-loss obligation.
    """
    attempted = acked = 0
    try:
        with VerdictClient(
            port=leader.port, tenant=TENANT, timeout_s=120.0, max_retries=0
        ) as client:
            for sql in DRIVE_SQL:
                attempted += 1
                if client.record(sql):
                    acked += 1
            client.snapshot()
    except ClientError:
        pass
    return attempted, acked


@pytest.mark.parametrize("point, action", matrix_params())
def test_leader_death_loses_no_acked_record(
    seeded_root, oracle, tmp_path, point, action
):
    leader_root = tmp_path / "leader"
    shutil.copytree(seeded_root, leader_root)
    follower_root = tmp_path / "follower"

    plan = {"rules": [{"point": point, "action": action}]}
    leader = ServerProcess(
        leader_root,
        fault_plan=plan,
        extra_args=["--repl-ack", "sync", "--repl-ack-timeout", "30"],
    )
    follower = None
    try:
        follower = ServerProcess(
            follower_root,
            extra_args=["--follow", f"127.0.0.1:{leader.port}", "--repl-poll", "0.1"],
        )
        attempted, acked = drive_until_death(leader)
        # The armed point must have killed the leader with the fault code.
        leader.process.wait(timeout=60)
        assert leader.process.returncode == FAULT_EXIT_CODE, (
            f"expected injected-fault exit {FAULT_EXIT_CODE} at {point}, "
            f"got {leader.process.returncode}"
        )

        # Manual failover: promote the follower, which becomes writable.
        with VerdictClient(port=follower.port, tenant=TENANT, timeout_s=120.0) as client:
            result = client.promote()
            assert result["promoted"] is True
            assert result["replication"]["role"] == "leader"
            names = {entry["tenant"] for entry in client.list_tenants()}
            if TENANT not in names:
                client.create_tenant()  # bootstrap never ran: empty state

        survived = capture_fingerprints(follower.port)
        allowed = {
            j: oracle[j]
            for j in range(acked, attempted + 1)
            if isinstance(oracle.get(j), list)
        }
        matches = [j for j, reference in allowed.items() if survived == reference]
        if not matches and acked == 0 and survived == oracle["empty"]:
            matches = ["empty"]
        assert matches, (
            f"promoted follower state at {point}:{action} matches no oracle "
            f"prefix in [{acked}, {attempted}] (acked={acked}, "
            f"attempted={attempted}) -- acked records were lost or the "
            f"replayed state diverged"
        )

        # And the promoted leader accepts new writes under its new epoch.
        # A follower that adopted the leader's epoch promotes strictly past
        # it; one that died before bootstrap promotes from 0, and the
        # fresh lineage token still fences the equal-epoch split brain.
        with VerdictClient(port=follower.port, tenant=TENANT, timeout_s=120.0) as client:
            assert client.record(DRIVE_SQL[0]) is True
            status = client.replication_status()
            assert status["replication"]["role"] == "leader"
            assert status["replication"]["epoch"] >= (
                1 if matches == ["empty"] else 2
            )
            assert status["replication"]["lineage"]
    finally:
        if follower is not None:
            follower.terminate()
        leader.terminate()
