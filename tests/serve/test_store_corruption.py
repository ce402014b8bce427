"""Property tests: the store recovers from *arbitrary* persistence damage.

Hypothesis drives random corruptions of a seeded store directory -- tail
truncations at any byte offset and single-byte flips anywhere in the delta
log or snapshot -- and asserts the recovery contract of
:class:`~repro.serve.store.SynopsisStore`:

* loading never raises, whatever the damage;
* the delta log recovers to exactly its longest valid prefix (computed here
  from the per-record metadata chain, independently of the store's replay);
* recovery is idempotent and byte-identical: two independent loads of the
  same damaged directory produce engines with identical serialised state;
* a quarantined snapshot never crash-loops -- the bad bytes are moved
  aside, so the next restart does not trip over them again.

Every example copies the seeded directory, so corruptions never compound.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig, VerdictConfig
from repro.core.engine import VerdictEngine
from repro.core.serialize import canonical_json, decode_checked_record
from repro.db.catalog import Catalog
from repro.serve.store import SynopsisStore
from repro.workloads.synthetic import make_sales_table

TRAINING = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30",
    "SELECT COUNT(*) FROM sales WHERE week >= 5 AND week <= 35",
]
DELTA_SQL = [
    "SELECT COUNT(*) FROM sales WHERE week >= 20 AND week <= 50",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
    "SELECT COUNT(*) FROM sales WHERE week >= 2 AND week <= 18",
    "SELECT AVG(revenue) FROM sales WHERE week >= 33 AND week <= 52",
]


def build_engine() -> VerdictEngine:
    table = make_sales_table(num_rows=3_000, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    aqp = OnlineAggregationEngine(
        catalog, sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
    )
    return VerdictEngine(catalog, aqp, config=VerdictConfig(learn_length_scales=False))


@dataclass(frozen=True)
class SeededStore:
    """A pristine store directory plus the ground truth to recover against."""

    directory: Path
    snapshot_version: int  #: synopsis version folded into snapshot.json
    delta_versions: tuple[int, ...]  #: version after each delta record, in order

    def expected_version(self, prefix_records: int) -> int:
        """Synopsis version after replaying ``prefix_records`` delta records."""
        if prefix_records == 0:
            return self.snapshot_version
        return self.delta_versions[prefix_records - 1]


@pytest.fixture(scope="module")
def seeded(tmp_path_factory) -> SeededStore:
    """One snapshot plus several single-record delta flushes."""
    directory = tmp_path_factory.mktemp("pristine-store")
    engine = build_engine()
    for sql in TRAINING:
        engine.execute(sql)
    store = SynopsisStore(directory)
    assert store.flush(engine) == "snapshot"
    snapshot_version = engine.synopsis.version
    delta_versions = []
    for sql in DELTA_SQL:
        parsed, _ = engine.check(sql)
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        delta_versions.append(engine.synopsis.version)
    return SeededStore(directory, snapshot_version, tuple(delta_versions))


def damaged_copy(seeded: SeededStore, tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("damaged")
    shutil.rmtree(target)
    shutil.copytree(seeded.directory, target)
    return target


def load(directory: Path) -> tuple[SynopsisStore, VerdictEngine, bool]:
    store = SynopsisStore(directory)
    engine = build_engine()
    loaded = store.load_into(engine)
    return store, engine, loaded


def engine_fingerprint(engine: VerdictEngine) -> str:
    """Canonical bytes of the full learned state (factors included)."""
    return canonical_json(engine.state_dict())


def oracle_prefix(seeded: SeededStore, lines: list[str]) -> int:
    """Longest replayable prefix of (possibly damaged) delta-log lines.

    Mirrors the store's acceptance rules from record *metadata* alone --
    CRC validity and the base-version chain -- without touching an engine,
    so the store's actual recovery has an independent reference.
    """
    current = seeded.snapshot_version
    kept = 0
    for line in lines:
        record = decode_checked_record(line)
        if record is None or not isinstance(record, dict):
            break
        version = record.get("version", -1)
        if version <= current:
            kept += 1  # stale or opaque record: kept but not replayed
            continue
        if record.get("base_version") != current:
            break
        current = version
        kept += 1
    return kept


def oracle_version(seeded: SeededStore, lines: list[str]) -> int:
    current = seeded.snapshot_version
    for line in lines[: oracle_prefix(seeded, lines)]:
        record = decode_checked_record(line)
        version = record.get("version", -1) if isinstance(record, dict) else -1
        if version > current:
            current = version
    return current


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_tail_truncation_recovers_the_longest_valid_prefix(
    seeded, tmp_path_factory, data
):
    directory = damaged_copy(seeded, tmp_path_factory)
    delta_path = directory / "deltas.jsonl"
    raw = delta_path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
    delta_path.write_bytes(raw[:cut])

    store, engine, loaded = load(directory)
    assert loaded, "the snapshot is intact; truncated deltas never unload it"
    surviving = [
        line for line in raw[:cut].decode("utf-8", "replace").splitlines() if line
    ]
    assert engine.synopsis.version == oracle_version(seeded, surviving)
    # The log was rewritten to the valid prefix: a second restart replays
    # the identical state with nothing left to repair.
    again_store, again, _ = load(directory)
    assert again_store.counters["tail_recoveries"] == 0
    assert engine_fingerprint(again) == engine_fingerprint(engine)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_single_byte_flip_in_the_delta_log_recovers_a_valid_prefix(
    seeded, tmp_path_factory, data
):
    directory = damaged_copy(seeded, tmp_path_factory)
    delta_path = directory / "deltas.jsonl"
    raw = bytearray(delta_path.read_bytes())
    index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="index")
    flip = data.draw(st.integers(min_value=1, max_value=255), label="xor")
    raw[index] ^= flip
    delta_path.write_bytes(bytes(raw))

    damaged_lines = [
        line for line in bytes(raw).decode("utf-8", "replace").splitlines() if line
    ]
    store, engine, loaded = load(directory)
    assert loaded
    assert engine.synopsis.version == oracle_version(seeded, damaged_lines)
    assert engine.synopsis.version >= seeded.snapshot_version
    # Byte-identical recovery: an independent load of the damaged directory
    # reaches exactly the same learned state.
    _, again, _ = load(directory)
    assert engine_fingerprint(again) == engine_fingerprint(engine)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_snapshot_damage_never_crashes_or_crash_loops(
    seeded, tmp_path_factory, data
):
    directory = damaged_copy(seeded, tmp_path_factory)
    snapshot_path = directory / "snapshot.json"
    raw = bytearray(snapshot_path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
        snapshot_path.write_bytes(bytes(raw[:cut]))
    else:
        index = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1), label="index"
        )
        raw[index] ^= data.draw(st.integers(min_value=1, max_value=255), label="xor")
        snapshot_path.write_bytes(bytes(raw))

    store, engine, loaded = load(directory)  # must not raise, whatever happened
    if loaded:
        # The damage spared both the checksummed body and a parseable footer
        # (e.g. the cut removed only the final newline, or a flip turned the
        # footer's space into other whitespace).
        assert engine.synopsis.version >= seeded.snapshot_version
    else:
        assert store.quarantined
        assert store.counters["snapshots_quarantined"] >= 1
        assert not snapshot_path.exists(), "the bad bytes were moved aside"
    # Never a crash loop: the next restart must not trip over the same
    # corruption (either it loads, or the quarantine already removed it).
    second_store, second_engine, second_loaded = load(directory)
    assert second_loaded == loaded
    if loaded:
        assert engine_fingerprint(second_engine) == engine_fingerprint(engine)
    else:
        assert second_store.counters["snapshots_quarantined"] == 0


def test_replayed_answers_are_byte_identical_after_tail_corruption(
    seeded, tmp_path_factory
):
    """The crash-matrix contract at engine level: after recovering from a
    torn tail, two independent restores answer probes identically."""
    directory = damaged_copy(seeded, tmp_path_factory)
    delta_path = directory / "deltas.jsonl"
    with open(delta_path, "a", encoding="utf-8") as handle:
        handle.write('{"crc": 123, "record": {"version"')  # torn mid-append

    _, first, loaded = load(directory)
    assert loaded
    _, second, _ = load(directory)

    def probe(engine: VerdictEngine) -> list[tuple[float, float]]:
        cells = []
        for sql in TRAINING:
            answer = engine.execute(sql, record=False)[-1]
            for row in answer.rows:
                for estimate in row.estimates.values():
                    cells.append((estimate.value, estimate.error))
        return cells

    assert first.synopsis.version == seeded.delta_versions[-1]
    assert probe(first) == probe(second)
