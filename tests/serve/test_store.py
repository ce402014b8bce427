"""Persistence tests: snapshot -> delta -> compaction round trips.

The store's contract is *exact* resumption: an engine restored from disk
must produce byte-identical inference results to the engine that was
persisted -- including after incremental factor extensions, training, and
data appends.  The property test drives a randomized schedule of
record/query/flush/append operations and checks the invariant at every
flush point.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig, VerdictConfig
from repro.core.engine import VerdictEngine
from repro.core.regions import NumericRange, Region
from repro.core.serialize import canonical_json, decode_checked_record
from repro.core.snippet import Snippet
from repro.core.synopsis import QuerySynopsis
from repro.db.catalog import Catalog
from repro.serve.store import SynopsisStore
from repro.workloads.synthetic import make_sales_table

TRAINING = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
    "SELECT COUNT(*) FROM sales WHERE week >= 5 AND week <= 35",
    "SELECT COUNT(*) FROM sales WHERE week >= 20 AND week <= 50",
]
PROBES = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 12 AND week <= 40",
    "SELECT COUNT(*) FROM sales WHERE week >= 8 AND week <= 44",
    "SELECT AVG(revenue), COUNT(*) FROM sales WHERE week >= 30 AND week <= 50",
]


def build_engine(
    num_rows: int = 3_000,
    seed: int = 9,
    append_seeds: tuple[int, ...] = (),
    config: VerdictConfig | None = None,
) -> VerdictEngine:
    """An engine over the deterministic sales table.

    ``append_seeds`` replays data appends into the base table: the store
    persists *learned* state only, so a restarted engine is constructed over
    the database as it stands (base rows plus every appended batch).
    """
    table = make_sales_table(num_rows=num_rows, num_weeks=52, seed=seed)
    for append_seed in append_seeds:
        extra = make_sales_table(num_rows=200, num_weeks=52, seed=append_seed)
        table = table.append(extra.renamed(table.name))
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    aqp = OnlineAggregationEngine(
        catalog, sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
    )
    return VerdictEngine(
        catalog, aqp, config=config or VerdictConfig(learn_length_scales=False)
    )


def probe_results(engine: VerdictEngine) -> list[tuple[float, float]]:
    """(value, error) of every probe cell -- compared with exact equality."""
    cells = []
    for sql in PROBES:
        answer = engine.execute(sql, record=False)[-1]
        for row in answer.rows:
            for estimate in row.estimates.values():
                cells.append((estimate.value, estimate.error))
    return cells


def assert_identical_engines(original: VerdictEngine, restored: VerdictEngine) -> None:
    assert len(restored.synopsis) == len(original.synopsis)
    assert restored.synopsis.version == original.synopsis.version
    assert probe_results(restored) == probe_results(original)


def factor_bytes(engine: VerdictEngine) -> dict:
    """Every prepared factorisation's arrays, byte for byte."""
    return {
        key: (
            prepared.synopsis_version,
            prepared.snippet_ids,
            prepared.base_size,
            prepared.cho[0].tobytes(),
            prepared.alpha.tobytes(),
            prepared.centered.tobytes(),
            None
            if prepared.inverse_diagonal is None
            else prepared.inverse_diagonal.tobytes(),
        )
        for key, prepared in engine.prepared_factors().items()
    }


def delta_records(store: SynopsisStore) -> list[dict]:
    return [
        decode_checked_record(line)
        for line in store.delta_path.read_text().splitlines()
    ]


def reload(store: SynopsisStore, append_seeds: tuple[int, ...] = ()) -> VerdictEngine:
    engine = build_engine(append_seeds=append_seeds)
    assert store.load_into(engine)
    return engine


class TestSnapshotRoundTrip:
    def test_snapshot_restores_byte_identical_inference(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING:
            engine.execute(sql)
        engine.train()
        store = SynopsisStore(tmp_path)
        assert store.flush(engine) == "snapshot"
        assert_identical_engines(engine, reload(store))

    def test_derived_inference_state_stays_out_of_the_snapshot(self, tmp_path):
        """The region layout and the posterior memo are rebuilt, never
        persisted: the state dict keeps its fields, and a restored engine
        -- asked directly, and asked again after both sides record more --
        still answers byte-identically."""
        engine = build_engine()
        for sql in TRAINING:
            engine.execute(sql)
        engine.train()
        probe_results(engine)  # fills every layout and memo
        assert all(
            p.layout is not None and p.posterior_memo
            for p in engine._prepared.values()
        )
        state = engine.state_dict()
        assert state["prepared"]
        for prepared_state in state["prepared"]:
            assert sorted(prepared_state) == [
                "alpha", "base_size", "calibration", "centered", "cho_lower",
                "cho_matrix", "inverse_diagonal", "jitter", "key",
                "noise_variances", "observations", "prior", "sigma2",
                "snippet_ids", "synopsis_version",
            ]

        store = SynopsisStore(tmp_path)
        assert store.flush(engine) == "snapshot"
        restored = reload(store)
        assert all(
            p.layout is None and not p.posterior_memo
            for p in restored._prepared.values()
        )
        assert_identical_engines(engine, restored)
        # Extending a restored factor grows a layout it first has to
        # rebuild; the result must not differ from the never-stopped one.
        for side in (engine, restored):
            side.execute("SELECT AVG(revenue), COUNT(*) FROM sales WHERE week >= 3 AND week <= 33")
        assert_identical_engines(engine, restored)
        assert all(p.appended_since_base > 0 for p in restored._prepared.values())

    def test_one_history_writes_one_state(self, tmp_path):
        """No wall-clock counter reaches the state: two engines driven
        through the same calls snapshot the same JSON, and a restored one
        starts its overhead clock at zero."""
        engines = [build_engine(), build_engine()]
        for engine in engines:
            for sql in TRAINING:
                engine.execute(sql)
            engine.train()
            probe_results(engine)
        first, second = (canonical_json(engine.state_dict()) for engine in engines)
        assert first == second
        assert "total_overhead_seconds" not in first
        store = SynopsisStore(tmp_path)
        store.flush(engines[0])
        assert reload(store).total_overhead_seconds == 0.0

    def test_snapshot_rotation_is_atomic(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING[:2]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        engine.execute(TRAINING[2])
        store.save_snapshot(engine)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert_identical_engines(engine, reload(store))

    def test_restart_after_register_append(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING:
            engine.execute(sql)
        engine.train()
        appended = make_sales_table(num_rows=200, num_weeks=52, seed=77)
        engine.register_append("sales", appended)
        store = SynopsisStore(tmp_path)
        assert store.flush(engine) == "snapshot"
        assert_identical_engines(engine, reload(store, append_seeds=(77,)))

    def test_corrupt_snapshot_is_quarantined_not_fatal(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        store.snapshot_path.write_text("{not json")
        fresh = SynopsisStore(tmp_path)
        # No previous generation exists yet, so nothing is recoverable --
        # but the store quarantines the bad file and starts empty instead
        # of crash-looping on it.
        assert not fresh.load_into(build_engine())
        assert fresh.quarantined
        assert fresh.counters["snapshots_quarantined"] == 1
        assert not store.snapshot_path.exists()
        assert list(fresh.quarantine_directory.iterdir())
        # The quarantine is sticky on disk: a second restart finds an empty
        # store, not the same corruption again.
        assert not SynopsisStore(tmp_path).load_into(build_engine())

    def test_unsupported_format_is_quarantined_not_fatal(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        from repro.core.serialize import decode_snapshot_document, encode_snapshot_document

        payload = decode_snapshot_document(store.snapshot_path.read_bytes())
        payload["format"] = 999
        store.snapshot_path.write_bytes(b"".join(encode_snapshot_document(payload)))
        fresh = SynopsisStore(tmp_path)
        assert not fresh.load_into(build_engine())
        assert fresh.quarantined
        assert fresh.counters["snapshots_quarantined"] == 1
        assert any("format" in note for note in fresh.recovery_notes)

    def test_version_one_snapshot_is_quarantined(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        from repro.core.serialize import decode_snapshot_document, encode_snapshot_document

        payload = decode_snapshot_document(store.snapshot_path.read_bytes())
        payload["format"] = 1
        store.snapshot_path.write_bytes(b"".join(encode_snapshot_document(payload)))
        fresh = SynopsisStore(tmp_path)
        assert not fresh.load_into(build_engine())
        assert fresh.quarantined
        assert (
            "quarantined snapshot.json: current snapshot format 1 unsupported "
            "(expected 2)" in fresh.recovery_notes
        )

    def test_snapshot_bytes_are_what_was_written_and_loaded(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        assert store.state_snapshot()["snapshot_bytes"] == 0
        store.flush(engine)
        size = store.snapshot_path.stat().st_size
        assert store.state_snapshot()["snapshot_bytes"] == size
        fresh = SynopsisStore(tmp_path)
        fresh.load_into(build_engine())
        assert fresh.snapshot_bytes == size

    def test_factor_costs_its_packed_triangle_plus_linear_bytes(self, tmp_path):
        """A factor of order n adds at most ceil(n(n+1)/2 * 8 * 4/3) bytes
        (its base64 lower triangle) plus O(n) to the snapshot."""
        engine = build_engine()
        engine.execute(TRAINING[0])
        (key,) = engine.synopsis.keys()
        template = engine.synopsis.snippets_for(key)[0]
        for step in range(239):
            region = Region(numeric_ranges=(NumericRange("week", 1 + step * 0.2, 11 + step * 0.2),))
            engine.synopsis.add(
                Snippet(key, region, template.raw_answer + step * 1e-3, template.raw_error)
            )
        order = engine._prepared_for(key).size
        assert order == 240
        store = SynopsisStore(tmp_path)
        store.save_snapshot(engine)
        with_factor = store.snapshot_bytes
        engine._prepared.clear()
        store.save_snapshot(engine)
        factor_bytes = with_factor - store.snapshot_bytes
        triangle = math.ceil(order * (order + 1) / 2 * 8 * 4 / 3)
        assert factor_bytes <= triangle + 96 * order + 1024
        assert factor_bytes > triangle  # the square form would be twice it

    def test_snapshot_without_checksum_footer_is_quarantined(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        body = store.snapshot_path.read_text().splitlines()[0]
        store.snapshot_path.write_text(body + "\n")  # a valid body, no footer
        fresh = SynopsisStore(tmp_path)
        assert not fresh.load_into(build_engine())
        assert fresh.quarantined
        assert fresh.counters["snapshots_quarantined"] == 1
        assert any("footer" in note for note in fresh.recovery_notes)

    def test_snapshot_without_replication_block_is_quarantined(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        engine.execute(TRAINING[1])
        store.save_snapshot(engine)
        from repro.core.serialize import decode_snapshot_document, encode_snapshot_document

        payload = decode_snapshot_document(store.snapshot_path.read_bytes())
        del payload["replication"]
        store.snapshot_path.write_bytes(b"".join(encode_snapshot_document(payload)))
        fresh = SynopsisStore(tmp_path)
        restored = build_engine()
        assert fresh.load_into(restored)  # from the previous generation
        assert fresh.quarantined
        assert fresh.counters["snapshots_quarantined"] == 1
        assert fresh.counters["previous_generation_recoveries"] == 1
        assert any("replication" in note for note in fresh.recovery_notes)
        assert restored.synopsis.version < engine.synopsis.version

    def test_corrupt_current_snapshot_falls_back_to_previous_generation(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        engine.execute(TRAINING[1])
        store.save_snapshot(engine)
        assert store.previous_snapshot_path.is_file()
        store.snapshot_path.write_text("garbage bytes")
        fresh = SynopsisStore(tmp_path)
        restored = build_engine()
        assert fresh.load_into(restored)
        assert fresh.quarantined
        assert fresh.counters["previous_generation_recoveries"] == 1
        # The previous generation predates TRAINING[1]'s snippets.
        assert restored.synopsis.version < engine.synopsis.version

    def test_empty_store_loads_nothing(self, tmp_path):
        store = SynopsisStore(tmp_path)
        assert not store.exists()
        assert not store.load_into(build_engine())


class TestDeltaLog:
    def test_record_only_window_flushes_as_delta(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING[:3]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        # Record raw answers without running inference in between: the
        # learned factors are untouched, so the flush is a cheap delta.
        for sql in TRAINING[3:]:
            parsed, _ = engine.check(sql)
            engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        assert store.delta_log_length == 1
        assert_identical_engines(engine, reload(store))

    def test_inference_since_flush_is_a_delta(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING[:3]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        # An AVG query whose aggregate function already has a prepared factor:
        # processing extends it (rank-k); the record logs *that* it grew and
        # at which synopsis version, and replay grows it again.
        engine.execute("SELECT AVG(revenue) FROM sales WHERE week >= 18 AND week <= 42")
        assert store.flush(engine) == "delta"
        record = delta_records(store)[-1]
        assert record["factors"]
        assert all(
            record["base_version"] <= at <= record["version"]
            for _, at in record["factors"]
        )
        assert store.state_snapshot()["factor_events_written"] == len(record["factors"])
        reloaded_store = SynopsisStore(tmp_path)
        restored = build_engine()
        assert reloaded_store.load_into(restored)
        assert reloaded_store.counters["factor_events_replayed"] == len(record["factors"])
        assert factor_bytes(restored) == factor_bytes(engine)
        assert_identical_engines(engine, restored)

    def test_record_without_factors_still_replays(self, tmp_path):
        """A record no ask grew a factor for carries snippets only."""
        engine = build_engine()
        for sql in TRAINING[:3]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        parsed, _ = engine.check(TRAINING[3])
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        (record,) = delta_records(store)
        assert "factors" not in record and isinstance(record["seq"], int)
        reloaded_store = SynopsisStore(tmp_path)
        restored = build_engine()
        assert reloaded_store.load_into(restored)
        assert reloaded_store.counters["deltas_replayed"] == 1
        assert factor_bytes(restored) == factor_bytes(engine)
        assert_identical_engines(engine, restored)

    def test_factor_only_flush_is_a_record_of_its_own(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING[:3]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        parsed, _ = engine.check(TRAINING[1])
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        engine.execute(PROBES[0], record=False)  # grows the AVG factor, adds nothing
        assert store.flush(engine) == "delta"
        assert store.flush(engine) == "noop"
        record = delta_records(store)[-1]
        assert record["snippets"] == [] and len(record["factors"]) == 1
        assert record["base_version"] == record["version"] == engine.synopsis.version
        restored = reload(store)
        assert factor_bytes(restored) == factor_bytes(engine)
        assert_identical_engines(engine, restored)

    def test_barriers_still_snapshot(self, tmp_path):
        engine = build_engine()
        for sql in TRAINING[:3]:
            engine.execute(sql)
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        key = engine.synopsis.keys()[0]
        barriers = {
            "train": lambda: engine.train(),
            "set_model": lambda: engine.set_model(key, engine.model_for(key)),
            "append": lambda: engine.register_append(
                "sales", make_sales_table(num_rows=200, num_weeks=52, seed=31)
            ),
        }
        for name, barrier in barriers.items():
            engine.execute(TRAINING[3])
            assert store.flush(engine) == "delta", name
            barrier()
            assert engine.factor_events_since(0) is None, name
            assert store.flush(engine) == "snapshot", name

    def test_compaction_folds_log_into_snapshot(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path, compact_after=2)
        store.flush(engine)
        for sql in TRAINING[1:4]:
            parsed, _ = engine.check(sql)
            engine.record(parsed, engine.aqp.final_answer(parsed))
            store.flush(engine)
        # Third delta flush crossed compact_after=2 and became a snapshot.
        assert store.delta_log_length < 3
        assert store.snapshots_written >= 2
        assert_identical_engines(engine, reload(store))

    def test_torn_final_delta_line_is_tolerated(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        parsed, _ = engine.check(TRAINING[1])
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        with open(store.delta_path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 999, "base_ver')  # simulated crash
        restored = build_engine()
        assert SynopsisStore(tmp_path).load_into(restored)
        # Everything before the torn line replayed.
        assert restored.synopsis.version == engine.synopsis.version

    def test_record_without_its_crc_envelope_is_truncated(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        snapshot_version = engine.synopsis.version
        parsed, _ = engine.check(TRAINING[1])
        engine.record(parsed, engine.aqp.final_answer(parsed))
        assert store.flush(engine) == "delta"
        (record,) = delta_records(store)
        store.delta_path.write_text(json.dumps(record) + "\n")  # no envelope
        reloaded_store = SynopsisStore(tmp_path)
        restored = build_engine()
        assert reloaded_store.load_into(restored)
        assert reloaded_store.counters["deltas_replayed"] == 0
        assert reloaded_store.counters["deltas_truncated"] == 1
        assert reloaded_store.counters["tail_recoveries"] == 1
        assert restored.synopsis.version == snapshot_version
        assert store.delta_path.read_text() == ""

    def test_torn_tail_is_truncated_so_later_flushes_survive_restart(self, tmp_path):
        """A flush after crash recovery must not append onto the torn tail
        (that would merge two records into one unparsable line and silently
        lose every later record on the next restart)."""
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        store.flush(engine)
        with open(store.delta_path, "a", encoding="utf-8") as handle:
            handle.write('{"version": 999, "base_ver')  # simulated crash
        # Crash recovery: restore, then keep serving and flushing.
        survivor = build_engine()
        recovered_store = SynopsisStore(tmp_path)
        assert recovered_store.load_into(survivor)
        parsed, _ = survivor.check(TRAINING[1])
        survivor.record(parsed, survivor.aqp.final_answer(parsed))
        assert recovered_store.flush(survivor) == "delta"
        # A second restart must replay that delta record.
        final = build_engine()
        assert SynopsisStore(tmp_path).load_into(final)
        assert final.synopsis.version == survivor.synopsis.version
        assert len(final.synopsis) == len(survivor.synopsis)

    def test_noop_flush_when_nothing_changed(self, tmp_path):
        engine = build_engine()
        engine.execute(TRAINING[0])
        store = SynopsisStore(tmp_path)
        assert store.flush(engine) == "snapshot"
        assert store.flush(engine) == "noop"


class TestSynopsisStateDict:
    def test_round_trip_preserves_identity_order_and_log(self):
        engine = build_engine()
        for sql in TRAINING:
            engine.execute(sql)
        synopsis = engine.synopsis
        clone = QuerySynopsis.from_state(synopsis.state_dict())
        assert clone.version == synopsis.version
        assert clone.keys() == synopsis.keys()
        for key in synopsis.keys():
            original = [(s.snippet_id, s.sequence, s.raw_answer, s.raw_error)
                        for s in synopsis.snippets_for(key)]
            restored = [(s.snippet_id, s.sequence, s.raw_answer, s.raw_error)
                        for s in clone.snippets_for(key)]
            assert restored == original
        # The change log survives, so deltas straddling the snapshot work.
        for version in range(max(0, synopsis.version - 3), synopsis.version + 1):
            original_delta = synopsis.changes_since(version)
            restored_delta = clone.changes_since(version)
            if original_delta is None:
                assert restored_delta is None
            else:
                assert restored_delta is not None
                assert restored_delta.dirty == original_delta.dirty
                assert {
                    key: [s.snippet_id for s in snippets]
                    for key, snippets in restored_delta.appended.items()
                } == {
                    key: [s.snippet_id for s in snippets]
                    for key, snippets in original_delta.appended.items()
                }


@settings(max_examples=12, deadline=None)
@given(
    schedule=st.lists(
        st.sampled_from(["record", "query", "flush", "append"]),
        min_size=3,
        max_size=9,
    )
)
def test_property_random_schedule_round_trips_byte_identical(tmp_path_factory, schedule):
    """Snapshot -> delta -> compaction property: any schedule of synopsis
    mutations and flushes reloads to byte-identical inference results."""
    directory = tmp_path_factory.mktemp("store")
    engine = build_engine()
    store = SynopsisStore(directory, compact_after=2)
    training = iter(TRAINING * 3)
    append_seeds: list[int] = []
    for step in schedule:
        if step == "record":
            parsed, _ = engine.check(next(training))
            engine.record(parsed, engine.aqp.final_answer(parsed))
        elif step == "query":
            engine.execute(next(training), record=True)
        elif step == "append":
            seed = 31 + len(append_seeds)
            engine.register_append(
                "sales", make_sales_table(num_rows=200, num_weeks=52, seed=seed)
            )
            append_seeds.append(seed)
        else:
            store.flush(engine)
    store.flush(engine)
    assert_identical_engines(engine, reload(store, append_seeds=tuple(append_seeds)))
