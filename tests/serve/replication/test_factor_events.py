"""Shipped factor events: a follower that answers asks stays the leader's twin.

A delta record carries the factor growth of the leader's asks as
``[key, synopsis version]`` events.  A follower serves asks from its own
engine, so its factors grow on *its* schedule -- in different chunks than
the leader's.  The contract checked here: that growth is a cache.  Every
shipped record is applied to the factors of the last shipped record, so
after it the follower holds the bits a restart of the leader would hold,
and the leader never has to ship a second snapshot to get it there.
"""

from __future__ import annotations

import pytest

from repro.serve.http.protocol import answer_fingerprint
from repro.serve.store import SynopsisStore

from test_follower_apply import pair  # noqa: F401  (fixture)
from test_store_envelope import TRAINING, build_engine, record_one

RECORDS = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
    "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 17",
    "SELECT AVG(revenue) FROM sales WHERE week >= 30 AND week <= 52",
    "SELECT AVG(revenue) FROM sales WHERE week >= 12 AND week <= 28",
]
ASKS = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33",
    "SELECT AVG(revenue) FROM sales WHERE week >= 20 AND week <= 41",
]
PROBES = ASKS + [
    "SELECT AVG(revenue), COUNT(*) FROM sales WHERE week >= 15 AND week <= 48",
]


def factor_bytes(engine) -> dict:
    return {
        key: (
            prepared.snippet_ids,
            prepared.cho[0].tobytes(),
            prepared.alpha.tobytes(),
            prepared.centered.tobytes(),
            prepared.inverse_diagonal.tobytes(),
        )
        for key, prepared in engine.prepared_factors().items()
    }


def ask(engine, sql: str) -> list[tuple[float, float]]:
    answer = engine.execute(sql, record=False)[-1]
    return [
        (estimate.value, estimate.error)
        for row in answer.rows
        for estimate in row.estimates.values()
    ]


@pytest.fixture
def nodes(tmp_path):
    """A leader with one snapshot and a follower bootstrapped from it."""
    leader = build_engine()
    for sql in TRAINING:
        leader.execute(sql)
    leader_store = SynopsisStore(tmp_path / "leader")
    leader_store.adopt_epoch(1, "lineage-a")
    assert leader_store.flush(leader) == "snapshot"
    follower = build_engine()
    follower_store = SynopsisStore(tmp_path / "follower", replica=True)
    follower_store.install_shipped_snapshot(
        follower, leader_store.snapshot_path.read_text()
    )
    return leader, leader_store, follower, follower_store


def ship(leader_store, follower_store, follower) -> int:
    lines = leader_store.delta_tail(follower_store.sequence)
    for line in lines:
        follower_store.ship_append(follower, line)
    return len(lines)


class TestShippedFactorEvents:
    def test_follower_asking_between_records_converges_byte_identically(self, nodes):
        leader, leader_store, follower, follower_store = nodes
        bootstrap = leader_store.snapshot_sequence
        for sql, probe in zip(RECORDS, ASKS * 2):
            record_one(leader, sql)
            assert leader_store.flush(leader) == "delta"
            assert ship(leader_store, follower_store, follower) == 1
            ask(follower, probe)  # grows the follower's factor locally
            ask(leader, probe)  # ... and the leader's, logged for the next record
        assert follower_store.counters["factor_events_replayed"] == len(RECORDS) - 1
        assert leader_store.snapshot_sequence == bootstrap, "a second snapshot shipped"
        assert follower_store.flush(follower) == "noop"
        for sql in PROBES:
            assert ask(follower, sql) == ask(leader, sql)
        assert factor_bytes(follower) == factor_bytes(leader)

    def test_shipped_events_run_on_the_shipped_factor(self, nodes):
        """The follower's own ask rebuilt its factor over five snippets; the
        leader, asking later, rebuilds over six.  Run on the follower's own
        factor, the shipped event would be a rank-1 extension of the wrong
        base; run on the shipped one it is the leader's rebuild."""
        leader, leader_store, follower, follower_store = nodes
        for sql in RECORDS[:3]:
            record_one(leader, sql)
            assert leader_store.flush(leader) == "delta"
            ship(leader_store, follower_store, follower)
        ask(follower, ASKS[0])
        (local,) = follower.prepared_factors().values()
        assert (local.base_size, local.size) == (5, 5)
        record_one(leader, RECORDS[3])
        ask(leader, ASKS[0])
        assert leader_store.flush(leader) == "delta"
        assert ship(leader_store, follower_store, follower) == 1
        (shipped,) = follower.prepared_factors().values()
        assert (shipped.base_size, shipped.size) == (6, 6)
        assert factor_bytes(follower) == factor_bytes(leader)
        for sql in PROBES:
            assert ask(follower, sql) == ask(leader, sql)

    def test_every_apply_puts_the_follower_on_the_replayed_state(self, nodes, tmp_path):
        """No event ships for the follower's own growth, and none is needed:
        the next record discards it, so the follower extends in the leader's
        chunks afterwards."""
        leader, leader_store, follower, follower_store = nodes
        record_one(leader, RECORDS[0])
        leader_store.flush(leader)
        ship(leader_store, follower_store, follower)
        ask(follower, ASKS[0])  # rank-1 growth the leader never made
        record_one(leader, RECORDS[1])
        leader_store.flush(leader)
        ship(leader_store, follower_store, follower)
        restarted = build_engine()
        assert SynopsisStore(tmp_path / "leader").load_into(restarted)
        assert factor_bytes(follower) == factor_bytes(restarted)
        assert ask(follower, ASKS[1]) == ask(leader, ASKS[1])  # both rank-2 now
        assert factor_bytes(follower) == factor_bytes(leader)

    def test_replica_snapshot_persists_shipped_factors_only(self, nodes, tmp_path):
        leader, leader_store, follower, follower_store = nodes
        record_one(leader, RECORDS[0])
        leader_store.flush(leader)
        ship(leader_store, follower_store, follower)
        shipped = factor_bytes(follower)
        ask(follower, ASKS[0])
        assert factor_bytes(follower) != shipped
        before = follower_store.sequence
        assert follower_store.save_snapshot(follower) == "snapshot"
        assert follower_store.sequence == before
        reopened = build_engine()
        assert SynopsisStore(tmp_path / "follower", replica=True).load_into(reopened)
        assert factor_bytes(reopened) == shipped

    def test_promoted_follower_logs_its_own_growth(self, nodes, tmp_path):
        leader, leader_store, follower, follower_store = nodes
        record_one(leader, RECORDS[0])
        leader_store.flush(leader)
        ship(leader_store, follower_store, follower)
        ask(follower, ASKS[0])
        follower_store.replica = False  # what ReplicationManager.promote does
        follower_store.adopt_epoch(2, "lineage-b")
        record_one(follower, RECORDS[1])
        assert follower_store.flush(follower) == "delta"
        reopened = build_engine()
        assert SynopsisStore(tmp_path / "follower").load_into(reopened)
        assert factor_bytes(reopened) == factor_bytes(follower)


def test_pair_follower_answers_between_shipped_records(pair):  # noqa: F811
    """End to end: record -> ask -> record -> ask on the leader, the follower
    answering in between; then both answer the probes byte-identically and
    the follower got there on delta records alone."""

    def snapshot_sequence() -> int:
        with pair.leader.tenants.lease("acme") as tenant:
            return tenant.store.snapshot_sequence

    with pair.client(pair.leader) as leader, pair.client(pair.follower) as follower:
        assert leader.record(TRAINING[0]) and leader.record(TRAINING[1])
        pair.wait_caught_up()
        bootstrap = snapshot_sequence()
        installs = pair.follower_repl.counters["snapshots_installed"]
        for sql, probe in zip(RECORDS, ASKS * 2):
            assert leader.record(sql)
            pair.wait_caught_up()
            follower.ask(probe, record=False)
            leader.ask(probe, record=False)
        for sql in PROBES:
            ours = follower.ask(sql, record=False)
            theirs = leader.ask(sql, record=False)
            assert answer_fingerprint(ours) == answer_fingerprint(theirs)
        with pair.leader.tenants.lease("acme") as tenant:
            assert tenant.store.factor_events_written > 0
        with pair.follower.tenants.lease("acme") as tenant:
            assert tenant.store.counters["factor_events_replayed"] > 0
    assert snapshot_sequence() == bootstrap
    assert pair.follower_repl.counters["snapshots_installed"] == installs
