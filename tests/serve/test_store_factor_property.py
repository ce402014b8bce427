"""Property: what a flush leaves on disk is the engine as of that flush.

Hypothesis interleaves records, asks (which grow factors lazily and add
nothing to the synopsis), flushes, training rounds and data appends.  After
every flush the process "crashes": the store directory is copied as it
stands -- no ``close``, no final snapshot -- and reopened over the database
as it stood.  The reopened engine must hold the live engine's synopsis
version, the same set of prepared factorisations, and ``tobytes()``-equal
factor arrays: replay re-runs the logged factor events, it does not
approximate them.  And a flush must cost a full snapshot exactly when
something a record cannot replay happened since the previous one.
"""

from __future__ import annotations

import shutil

from hypothesis import given, settings, strategies as st

from repro.serve.store import SynopsisStore
from repro.workloads.synthetic import make_sales_table

from test_store import build_engine, delta_records, factor_bytes

RECORDS = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT COUNT(*) FROM sales WHERE week >= 5 AND week <= 35",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
    "SELECT AVG(price), COUNT(*) FROM sales WHERE week >= 10 AND week <= 30",
    "SELECT AVG(revenue) FROM sales WHERE week >= 14 AND week <= 38",
    "SELECT SUM(revenue) FROM sales WHERE week >= 30 AND week <= 50",
]
ASKS = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 12 AND week <= 40",
    "SELECT COUNT(*) FROM sales WHERE week >= 8 AND week <= 44",
    "SELECT AVG(price) FROM sales WHERE week >= 3 AND week <= 27",
    "SELECT AVG(revenue), COUNT(*) FROM sales WHERE week >= 30 AND week <= 50",
]

STEPS = ["record", "record", "ask", "ask", "flush", "flush", "train", "append"]


@settings(max_examples=25, deadline=None)
@given(
    schedule=st.lists(st.sampled_from(STEPS), min_size=4, max_size=14),
    capacity=st.sampled_from([4, 2_000]),
)
def test_crash_after_any_flush_reopens_to_the_flushed_engine(
    tmp_path_factory, schedule, capacity
):
    directory = tmp_path_factory.mktemp("live")
    engine = build_engine()
    # A capacity of 4 makes records evict: a dirty key, hence a snapshot.
    engine.synopsis.capacity_per_key = capacity
    store = SynopsisStore(directory)
    append_seeds: list[int] = []
    records = asks = 0
    unreplayable = True  # nothing is on disk yet: the first flush snapshots
    persisted = (None, None)
    for step in schedule + ["flush"]:
        if step == "record":
            parsed, _ = engine.check(RECORDS[records % len(RECORDS)])
            records += 1
            before = len(engine.synopsis)
            added = engine.record(parsed, engine.aqp.final_answer(parsed))
            unreplayable |= len(engine.synopsis) != before + added  # eviction
        elif step == "ask":
            sql = ASKS[asks % len(ASKS)]
            asks += 1
            if asks % 2:
                engine.execute(sql, record=False)
            else:
                for _ in engine.run(sql):
                    pass
        elif step == "train":
            models = engine.models_version
            engine.train()
            unreplayable |= engine.models_version != models
        elif step == "append":
            seed = 31 + len(append_seeds)
            engine.register_append(
                "sales", make_sales_table(num_rows=200, num_weeks=52, seed=seed)
            )
            append_seeds.append(seed)
            unreplayable = True
        else:
            state = (engine.synopsis.version, engine.state_epoch)
            kind = store.flush(engine)
            if unreplayable:
                assert kind == "snapshot"
            elif state == persisted:
                assert kind == "noop"
            else:
                assert kind == "delta"
            unreplayable = False
            persisted = state

            # A factor over since-evicted snippets is dead weight -- its key
            # is dirty, the next use rebuilds it -- and a load drops it.
            flushed = {
                key: arrays
                for key, arrays in factor_bytes(engine).items()
                if {s.snippet_id for s in engine.synopsis.snippets_for(key)}.issuperset(
                    engine.prepared_factors()[key].snippet_ids
                )
            }
            crashed = tmp_path_factory.mktemp("crashed") / "store"
            shutil.copytree(directory, crashed)
            reopened = build_engine(append_seeds=tuple(append_seeds))
            reopened_store = SynopsisStore(crashed)
            assert reopened_store.load_into(reopened)
            assert reopened.synopsis.version == engine.synopsis.version
            assert reopened.state_epoch == engine.state_epoch
            assert factor_bytes(reopened) == flushed
            logged = sum(len(r.get("factors", ())) for r in delta_records(store))
            assert reopened_store.counters["factor_events_replayed"] == logged
            shutil.rmtree(crashed.parent, ignore_errors=True)
