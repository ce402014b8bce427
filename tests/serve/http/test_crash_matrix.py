"""Crash matrix: kill the server at every store fault point, restart, replay.

The acceptance test of the fault-injection harness.  For each named
``store.*`` fault point a real ``python -m repro.serve.http`` subprocess is
started over a copy of a seeded state root with ``REPRO_FAULTS`` arming a
``kill`` (or ``torn``: half-write durably, then die) at that point.  Client
traffic drives the store through the point, the process dies with
:data:`~repro.faults.FAULT_EXIT_CODE` -- indistinguishable from SIGKILL as
far as the files are concerned, but assertable -- and then the contract is
checked: a clean restart over the crashed root serves the replay trace, and
a *second* restart (after another hard kill) serves it byte-identically.

The full matrix is long; by default only a three-point smoke subset runs
(one point per recovery mode: delta-tail truncation, snapshot rotation,
replay-time crash).  Set ``CRASH_MATRIX=full`` (the dedicated CI job does)
to run every point.
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

#: Records flushed as deltas after the seed snapshot, so the crashed-at
#: server has a real delta log to replay (and to tear).
DELTA_SQL = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 6 AND week <= 21",
    "SELECT AVG(revenue) FROM sales WHERE week >= 30 AND week <= 44",
]

TRACE_SQL = [
    "SELECT COUNT(*) FROM sales",
    "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 27",
    "SELECT AVG(revenue) FROM sales WHERE week >= 20 AND week <= 40",
    "SELECT SUM(revenue) FROM sales WHERE week >= 5 AND week <= 18",
    "SELECT AVG(price) FROM sales WHERE week >= 10 AND week <= 30",
]

#: (fault point, action) -- every store.* point, one row per failure mode.
MATRIX = [
    ("store.replay.record", "kill"),
    ("store.delta.append", "torn"),
    ("store.delta.append", "kill"),
    ("store.delta.fsync", "kill"),
    ("store.snapshot.write", "torn"),
    ("store.snapshot.write", "kill"),
    ("store.snapshot.fsync", "kill"),
    ("store.snapshot.rename", "kill"),
    ("store.delta.truncate", "kill"),
]

#: One point per recovery mode: replay-time crash, torn delta tail, crash
#: inside the snapshot rotation.
SMOKE = {
    ("store.replay.record", "kill"),
    ("store.delta.append", "torn"),
    ("store.snapshot.rename", "kill"),
}

#: The delta-log points again, this time with a record that carries factor
#: events (an ask grew a factor before the record was flushed): being
#: written torn, written but not fsynced, and being replayed.
FACTOR_MATRIX = [
    ("store.replay.record", "kill"),
    ("store.delta.append", "torn"),
    ("store.delta.fsync", "kill"),
]

FULL_MATRIX = os.environ.get("CRASH_MATRIX", "").lower() == "full"


def matrix_params(matrix=MATRIX):
    for point, action in matrix:
        marks = []
        if not FULL_MATRIX and (point, action) not in SMOKE:
            marks.append(
                pytest.mark.skip(
                    reason="full matrix runs in the crash-matrix CI job; set CRASH_MATRIX=full"
                )
            )
        yield pytest.param(point, action, id=f"{point}:{action}", marks=marks)


class ServerProcess:
    """One front-door subprocess over ``root``, optionally with a fault plan."""

    def __init__(self, root: Path, fault_plan: dict | None = None):
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
            ],
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


def replay_fingerprints(port: int) -> list[bytes]:
    with VerdictClient(port=port, tenant=TENANT, timeout_s=120.0) as client:
        return [
            answer_fingerprint(client.ask(sql, record=False)) for sql in TRACE_SQL
        ]


@pytest.fixture(scope="module")
def seeded_root(tmp_path_factory) -> Path:
    """A state root with a snapshot *and* live delta records.

    The seed server is hard-killed (no graceful shutdown) precisely so its
    final snapshot does not fold the delta log away -- the crashed-at
    servers must have deltas to replay and to tear.
    """
    root = tmp_path_factory.mktemp("crash-matrix-seed")
    server = ServerProcess(root)
    try:
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            client.create_tenant()
            for sql in INGEST_SQL:
                assert client.record(sql) is True
            assert client.train()["trained"] is True
            assert client.snapshot()["snapshot"] == "snapshot"
            for sql in DELTA_SQL:
                assert client.record(sql) is True
    finally:
        server.kill()
    store_dir = root / "tenants" / TENANT / "store"
    assert (store_dir / "snapshot.json").is_file()
    assert (store_dir / "deltas.jsonl").read_text().strip(), "seed needs deltas"
    return root


def delta_records(root: Path) -> list[dict]:
    log = root / "tenants" / TENANT / "store" / "deltas.jsonl"
    return [json.loads(line)["record"] for line in log.read_text().splitlines()]


@pytest.fixture(scope="module")
def seeded_factor_root(seeded_root, tmp_path_factory) -> Path:
    """The seeded root plus an ask and a record: its log ends in a record
    with ``factors``, hard-killed like the seed so nothing folds it away."""
    root = tmp_path_factory.mktemp("crash-matrix-factors") / "root"
    shutil.copytree(seeded_root, root)
    server = ServerProcess(root)
    try:
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            client.ask(TRACE_SQL[1], record=False)
            assert client.record("SELECT AVG(revenue) FROM sales WHERE week >= 15 AND week <= 33")
    finally:
        server.kill()
    assert delta_records(root)[-1].get("factors"), "seed needs a factor-bearing record"
    return root


def crash_at(root: Path, point: str, action: str, ask_first: bool = False) -> None:
    """Drive a fault-armed server through ``point`` until it dies with 86.

    With ``ask_first`` an ask grows a factor before the first record, so the
    delta record the crash interrupts carries a factor event.
    """
    plan = {"rules": [{"point": point, "action": action}]}
    server = ServerProcess(root, fault_plan=plan)
    try:
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as client:
            with pytest.raises(ClientError):
                if ask_first:
                    client.ask(TRACE_SQL[2], record=False)
                # Mutations walk the store through every fault point:
                # loading the tenant replays the seed deltas
                # (store.replay.record), each record flushes one delta
                # (store.delta.append / fsync), and the explicit snapshot
                # runs the full rotation (store.snapshot.* and
                # store.delta.truncate).  The armed point kills the process
                # mid-call, so some call below must die on the wire.
                client.record("SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 17")
                client.record("SELECT AVG(revenue) FROM sales WHERE week >= 22 AND week <= 39")
                client.snapshot()
                raise AssertionError(f"server survived {action} at {point}")
        server.process.wait(timeout=30)
    finally:
        server.terminate()
    assert server.process.returncode == FAULT_EXIT_CODE, (
        f"expected injected-fault exit {FAULT_EXIT_CODE} at {point}, "
        f"got {server.process.returncode}"
    )


def test_crash_during_cancellation_recovers_and_replays_identically(
    seeded_root, tmp_path
):
    """Kill the server between cancel lookup and delivery: no torn state.

    A slow ask (every online-aggregation batch delayed by an injected
    fault) is in flight when ``POST /v1/cancel`` arrives; the ``kill`` armed
    at ``governor.cancel`` dies exactly between the registry lookup and the
    token arm.  The cancelled-mid-cancel query must leave nothing behind:
    both restarts replay the trace byte-identically.
    """
    import threading

    root = tmp_path / "root"
    shutil.copytree(seeded_root, root)

    plan = {
        "rules": [
            {"point": "governor.cancel", "action": "kill"},
            {"point": "aqp.batch", "action": "delay", "delay_s": 0.4},
        ]
    }
    server = ServerProcess(root, fault_plan=plan)
    request_id = "cancel-crash-1"
    try:
        errors: list[Exception] = []

        def doomed_ask() -> None:
            with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as c:
                try:
                    c.ask(
                        "SELECT AVG(revenue) FROM sales WHERE week >= 4 AND week <= 47",
                        max_relative_error=0.0005,
                        record=False,
                        request_id=request_id,
                    )
                except ClientError as error:
                    errors.append(error)

        asker = threading.Thread(target=doomed_ask, daemon=True)
        asker.start()
        with VerdictClient(port=server.port, tenant=TENANT, timeout_s=120.0) as c:
            for _ in range(2_000):
                if c.metrics(tenant="")["governor"]["cancels"]["in_flight"] == 1:
                    break
                threading.Event().wait(0.005)
            else:
                raise AssertionError("ask never became cancellable")
            with pytest.raises(ClientError):
                c.cancel(request_id)
                raise AssertionError("server survived kill at governor.cancel")
        server.process.wait(timeout=30)
        asker.join(timeout=120)
        assert not asker.is_alive()
        assert errors, "the in-flight ask must die on the wire"
    finally:
        server.terminate()
    assert server.process.returncode == FAULT_EXIT_CODE

    restarted = ServerProcess(root)
    try:
        with VerdictClient(port=restarted.port, timeout_s=120.0) as admin:
            assert admin.health()["status"] in ("ok", "degraded")
        first = replay_fingerprints(restarted.port)
    finally:
        restarted.kill()

    again = ServerProcess(root)
    try:
        second = replay_fingerprints(again.port)
    finally:
        again.terminate()
    assert second == first, "replay diverged after a mid-cancellation crash"


@pytest.mark.parametrize("point, action", matrix_params())
def test_crash_at_store_fault_point_recovers_and_replays_identically(
    seeded_root, tmp_path, point, action
):
    root = tmp_path / "root"
    shutil.copytree(seeded_root, root)

    crash_at(root, point, action)

    # First clean restart: recovery runs (truncation, generation fallback,
    # quarantine -- whatever the crash left behind), and the trace replays.
    restarted = ServerProcess(root)
    try:
        with VerdictClient(port=restarted.port, timeout_s=120.0) as admin:
            assert TENANT in {r["tenant"] for r in admin.list_tenants()}
            health = admin.health()
            assert health["status"] in ("ok", "degraded")
        first = replay_fingerprints(restarted.port)
    finally:
        restarted.kill()  # hard again: replays must not depend on shutdown

    # Second restart over the recovered root: byte-identical replay.
    again = ServerProcess(root)
    try:
        second = replay_fingerprints(again.port)
    finally:
        again.terminate()
    assert second == first, f"replay diverged across restarts after {point}"


@pytest.mark.parametrize("point, action", matrix_params(FACTOR_MATRIX))
def test_crash_around_a_factor_bearing_record_replays_identically(
    seeded_factor_root, tmp_path, point, action
):
    root = tmp_path / "root"
    shutil.copytree(seeded_factor_root, root)
    seeded_events = sum(len(r.get("factors", ())) for r in delta_records(root))

    crash_at(root, point, action, ask_first=True)
    if point == "store.delta.fsync":
        # The record was written whole before the kill: it must replay.
        assert len(delta_records(root)[-1]["factors"]) >= 1

    restarted = ServerProcess(root)
    try:
        first = replay_fingerprints(restarted.port)
        with VerdictClient(port=restarted.port, tenant=TENANT, timeout_s=120.0) as client:
            store = client.metrics()["metrics"]["store"]
        # Restart re-ran the logged extensions instead of loading them.
        assert store["factor_events_replayed"] >= seeded_events
        assert store["deltas_truncated"] == (1 if action == "torn" else 0)
    finally:
        restarted.kill()

    again = ServerProcess(root)
    try:
        second = replay_fingerprints(again.port)
    finally:
        again.terminate()
    assert second == first, f"replay diverged across restarts after {point}"
