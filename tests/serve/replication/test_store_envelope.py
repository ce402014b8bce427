"""Unit tests of the store-level replication envelope.

Every WAL event a leader persists -- delta records and snapshots -- now
carries a replication envelope (``seq``, ``epoch``, ``lineage``) so it can
be shipped to a follower and applied through the byte-identical restore
path.  These tests pin the envelope contract at the
:class:`~repro.serve.store.SynopsisStore` level, below HTTP:

* flushed delta records carry contiguous sequence numbers stamped with the
  store's fencing epoch, and a leader snapshot is itself a WAL event (it
  advances the sequence) while a replica snapshot is not;
* ``delta_tail`` ships exactly the contiguous CRC-valid records after a
  position, stopping at torn bytes;
* ``ship_append`` is verbatim (follower WAL bytes == leader WAL bytes) and
  rejects gaps and fenced epochs with typed errors;
* ``install_shipped_snapshot`` reproduces the leader's learned state
  byte-identically and positions the follower at the snapshot's sequence;
* a replica store refuses local flushes, a shipped line without its CRC
  envelope is refused, and the fencing sidecar survives a reopen.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig, VerdictConfig
from repro.core.engine import VerdictEngine
from repro.core.serialize import (
    canonical_json,
    decode_checked_record,
    decode_snapshot_document,
)
from repro.db.catalog import Catalog
from repro.errors import (
    EpochFencedError,
    FaultInjectedError,
    ReplicationError,
    ReplicationGapError,
)
from repro.faults import FaultPlan, FaultRule
from repro.serve.store import StoreError, SynopsisStore
from repro.workloads.synthetic import make_sales_table

TRAINING = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30",
]
DELTA_SQL = [
    "SELECT COUNT(*) FROM sales WHERE week >= 20 AND week <= 50",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
    "SELECT COUNT(*) FROM sales WHERE week >= 2 AND week <= 18",
]


def build_engine() -> VerdictEngine:
    table = make_sales_table(num_rows=3_000, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    aqp = OnlineAggregationEngine(
        catalog, sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
    )
    return VerdictEngine(catalog, aqp, config=VerdictConfig(learn_length_scales=False))


def engine_fingerprint(engine: VerdictEngine) -> str:
    return canonical_json(engine.state_dict())


def record_one(engine: VerdictEngine, sql: str) -> None:
    parsed, _ = engine.check(sql)
    engine.record(parsed, engine.aqp.final_answer(parsed))


def seeded_leader(directory) -> tuple[SynopsisStore, VerdictEngine]:
    """A leader store at epoch 1 with one snapshot and three delta records."""
    engine = build_engine()
    for sql in TRAINING:
        engine.execute(sql)
    store = SynopsisStore(directory)
    store.adopt_epoch(1, "lineage-a")
    assert store.flush(engine) == "snapshot"
    for sql in DELTA_SQL:
        record_one(engine, sql)
        assert store.flush(engine) == "delta"
    return store, engine


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


class TestEnvelope:
    def test_delta_records_carry_contiguous_seq_and_epoch(self, tmp_path):
        store, _ = seeded_leader(tmp_path)
        lines = store.delta_path.read_text().splitlines()
        records = [decode_checked_record(line) for line in lines]
        assert all(isinstance(record, dict) for record in records)
        # Snapshot took seq 1; the three deltas follow contiguously.
        assert [record["seq"] for record in records] == [2, 3, 4]
        assert all(record["epoch"] == 1 for record in records)
        assert all(record["lineage"] == "lineage-a" for record in records)
        assert store.sequence == 4
        assert store.snapshot_sequence == 1

    def test_leader_snapshot_advances_sequence_and_is_shippable(self, tmp_path):
        store, engine = seeded_leader(tmp_path)
        before = store.sequence
        assert store.compact(engine) == "snapshot"
        assert store.sequence == before + 1
        assert store.snapshot_sequence == store.sequence
        payload = decode_snapshot_document(store.snapshot_path.read_text())
        assert payload["replication"]["seq"] == store.sequence
        assert store.delta_log_length == 0

    def test_replica_snapshot_does_not_advance_sequence(self, tmp_path):
        leader, leader_engine = seeded_leader(tmp_path / "leader")
        leader.compact(leader_engine)
        follower = SynopsisStore(tmp_path / "follower", replica=True)
        follower_engine = build_engine()
        follower.install_shipped_snapshot(
            follower_engine, leader.snapshot_path.read_text()
        )
        before = follower.sequence
        assert follower.save_snapshot(follower_engine) == "snapshot"
        assert follower.sequence == before


class TestDeltaTail:
    def test_tail_filters_by_position_and_caps_batches(self, tmp_path):
        store, _ = seeded_leader(tmp_path)
        assert len(store.delta_tail(0)) == 3
        assert len(store.delta_tail(2)) == 2
        assert store.delta_tail(4) == []
        assert len(store.delta_tail(0, max_records=2)) == 2
        # Tail lines are the file's bytes, verbatim.
        assert store.delta_tail(0) == store.delta_path.read_text().splitlines()

    def test_tail_stops_at_torn_bytes(self, tmp_path):
        store, _ = seeded_leader(tmp_path)
        lines = store.delta_path.read_text().splitlines()
        torn = lines[:2] + [lines[2][: len(lines[2]) // 2]]
        store.delta_path.write_text("\n".join(torn) + "\n")
        assert store.delta_tail(0) == lines[:2]


class TestShipAppend:
    def ship_all(self, tmp_path) -> tuple:
        leader, leader_engine = seeded_leader(tmp_path / "leader")
        leader.compact(leader_engine)
        for sql in DELTA_SQL:
            record_one(leader_engine, sql)
            leader.flush(leader_engine)
        follower = SynopsisStore(tmp_path / "follower", replica=True)
        follower_engine = build_engine()
        follower.install_shipped_snapshot(
            follower_engine, leader.snapshot_path.read_text()
        )
        return leader, leader_engine, follower, follower_engine

    def test_shipped_wal_is_byte_identical(self, tmp_path):
        leader, leader_engine, follower, follower_engine = self.ship_all(tmp_path)
        for line in leader.delta_tail(follower.sequence):
            follower.ship_append(follower_engine, line)
        assert follower.delta_path.read_bytes() == leader.delta_path.read_bytes()
        assert follower.sequence == leader.sequence
        assert engine_fingerprint(follower_engine) == engine_fingerprint(
            leader_engine
        )

    def test_record_without_its_crc_envelope_is_refused(self, tmp_path):
        leader, _, follower, follower_engine = self.ship_all(tmp_path)
        record = decode_checked_record(leader.delta_tail(follower.sequence)[0])
        before = (follower.sequence, follower_engine.synopsis.version)
        with pytest.raises(ReplicationError, match="torn or corrupt"):
            follower.ship_append(follower_engine, json.dumps(record))
        assert (follower.sequence, follower_engine.synopsis.version) == before
        assert follower.delta_path.read_text() == ""

    def test_sequence_gap_is_typed(self, tmp_path):
        leader, _, follower, follower_engine = self.ship_all(tmp_path)
        tail = leader.delta_tail(follower.sequence)
        with pytest.raises(ReplicationGapError):
            follower.ship_append(follower_engine, tail[1])  # skipped tail[0]

    def test_base_version_mismatch_is_typed(self, tmp_path):
        leader, _, follower, follower_engine = self.ship_all(tmp_path)
        tail = leader.delta_tail(follower.sequence)
        follower.ship_append(follower_engine, tail[0])
        record_one(follower_engine, DELTA_SQL[0])  # local divergence
        record = decode_checked_record(tail[1])
        assert record["base_version"] != follower_engine.synopsis.version
        with pytest.raises(ReplicationGapError):
            follower.ship_append(follower_engine, tail[1])

    def test_fenced_epoch_record_is_rejected(self, tmp_path):
        leader, _, follower, follower_engine = self.ship_all(tmp_path)
        tail = leader.delta_tail(follower.sequence)
        follower.adopt_epoch(2, "lineage-b")  # a promotion happened elsewhere
        with pytest.raises(EpochFencedError):
            follower.ship_append(follower_engine, tail[0])  # stamped epoch 1

    def test_apply_fault_point_fires_before_durability(self, tmp_path):
        leader, _, follower, follower_engine = self.ship_all(tmp_path)
        tail = leader.delta_tail(follower.sequence)
        faults.install(
            FaultPlan([FaultRule(point="repl.apply.record", action="error")])
        )
        with pytest.raises(FaultInjectedError):
            follower.ship_append(follower_engine, tail[0])
        # The fault fired before the append: nothing reached the WAL.
        assert follower.delta_tail(0) == []


class TestShippedSnapshot:
    def test_install_reproduces_state_byte_identically(self, tmp_path):
        leader, leader_engine = seeded_leader(tmp_path / "leader")
        leader.compact(leader_engine)
        follower = SynopsisStore(tmp_path / "follower", replica=True)
        follower_engine = build_engine()
        follower.install_shipped_snapshot(
            follower_engine, leader.snapshot_path.read_text()
        )
        assert engine_fingerprint(follower_engine) == engine_fingerprint(
            leader_engine
        )
        assert follower.sequence == leader.snapshot_sequence
        assert follower.fencing_epoch == 1
        # And the installed document itself is the leader's bytes.
        assert (
            follower.snapshot_path.read_bytes() == leader.snapshot_path.read_bytes()
        )

    def test_corrupt_document_is_typed_not_applied(self, tmp_path):
        leader, leader_engine = seeded_leader(tmp_path / "leader")
        leader.compact(leader_engine)
        follower = SynopsisStore(tmp_path / "follower", replica=True)
        follower_engine = build_engine()
        document = leader.snapshot_path.read_text()
        from repro.errors import ReplicationError

        with pytest.raises(ReplicationError):
            follower.install_shipped_snapshot(
                follower_engine, document[: len(document) // 2]
            )
        assert follower.sequence == 0
        assert not follower.snapshot_path.is_file()


class TestReplicaAndFencing:
    def test_replica_store_refuses_local_flush(self, tmp_path):
        leader, leader_engine = seeded_leader(tmp_path / "leader")
        leader.compact(leader_engine)
        follower = SynopsisStore(tmp_path / "follower", replica=True)
        follower_engine = build_engine()
        follower.install_shipped_snapshot(
            follower_engine, leader.snapshot_path.read_text()
        )
        record_one(follower_engine, DELTA_SQL[0])  # dirty local engine
        with pytest.raises(StoreError):
            follower.flush(follower_engine)

    def test_fencing_sidecar_survives_reopen(self, tmp_path):
        store = SynopsisStore(tmp_path)
        store.adopt_epoch(3, "lineage-c")
        reopened = SynopsisStore(tmp_path)
        assert reopened.fencing_epoch == 3
        assert reopened.fencing_lineage == "lineage-c"

    def test_older_epoch_is_fenced(self, tmp_path):
        store = SynopsisStore(tmp_path)
        store.adopt_epoch(3, "lineage-c")
        with pytest.raises(EpochFencedError):
            store.adopt_epoch(2, "lineage-b")

    def test_equal_epoch_divergent_lineage_is_fenced(self, tmp_path):
        store = SynopsisStore(tmp_path)
        store.adopt_epoch(3, "lineage-c")
        with pytest.raises(EpochFencedError):
            store.adopt_epoch(3, "lineage-d")
        store.adopt_epoch(3, "lineage-c")  # same lineage is fine

    def test_directory_fsync_fault_point_guards_snapshot_rotation(self, tmp_path):
        store, engine = seeded_leader(tmp_path)
        faults.install(
            FaultPlan([FaultRule(point="store.dir.fsync", action="error")])
        )
        with pytest.raises(FaultInjectedError):
            store.compact(engine)
