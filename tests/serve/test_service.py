"""Concurrency and correctness tests for the serving front door.

The hammer tests drive :class:`VerdictService` from many threads mixing
reads with ``record``/``append`` and assert the two serving invariants:

* **no torn answers** -- an exact COUNT(*) always equals the table's row
  count at *some* append boundary, never a value in between;
* **no stale cache** -- after an append, a cached answer computed over the
  old data is never served again.

The restart test is the ISSUE 3 acceptance criterion: a service restarted
from its synopsis store answers a trace identically to the service that
never stopped.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.config import SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.deadline import CancelToken, cancel_scope
from repro.errors import ExpressionError, QueryCancelled, SchemaError, ServiceError
from repro.serve import ReadWriteLock, ServiceBudget, SynopsisStore, VerdictService
from repro.serve.planner import Route
from repro.sqlparser.parser import parse_query
from repro.workloads.customer1 import Customer1Workload
from repro.workloads.synthetic import make_sales_table

SAMPLING = SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
CONFIG = VerdictConfig(learn_length_scales=False)


def build_service(num_rows: int = 3_000, store=None, **kwargs) -> VerdictService:
    table = make_sales_table(num_rows=num_rows, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    return VerdictService(
        catalog, store=store, sampling=SAMPLING, config=CONFIG, **kwargs
    )


def customer1_service(num_rows: int = 6_000, store=None, **kwargs):
    workload = Customer1Workload(num_rows=num_rows, seed=5)
    service = VerdictService(
        workload.build_catalog(),
        store=store,
        sampling=SAMPLING,
        config=CONFIG,
        **kwargs,
    )
    return workload, service


class TestBasicServing:
    def test_exact_budget_routes_to_exact(self):
        with build_service() as service:
            answer = service.query("SELECT COUNT(*) FROM sales", budget=ServiceBudget.exact())
            assert answer.route is Route.EXACT
            assert answer.scalar() == 3_000.0
            assert answer.relative_error_bound == 0.0
            assert answer.budget_met

    def test_repeat_query_hits_cache(self):
        with build_service(record_queries=False) as service:
            sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30"
            first = service.query(sql)
            again = service.query(sql)
            assert not first.from_cache
            assert again.from_cache
            assert again.route is Route.CACHED
            assert again.rows == first.rows
            assert service.metrics.requests(Route.CACHED.value) == 1

    def test_recording_makes_learned_route_available(self):
        with build_service() as service:
            for low in (1, 12, 25, 38):
                service.record_answer(
                    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
                )
            service.train()
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33",
                budget=ServiceBudget.interactive(0.5),
                record=False,
            )
            assert answer.route is Route.LEARNED
            assert answer.budget_met

    def test_submit_runs_on_worker_pool(self):
        with build_service(max_workers=2, record_queries=False) as service:
            futures = [
                service.submit("SELECT COUNT(*) FROM sales", ServiceBudget.exact())
                for _ in range(8)
            ]
            values = {future.result().scalar() for future in futures}
            assert values == {3_000.0}

    def test_submit_carries_the_ambient_cancel_token(self):
        """A cancelled request stays cancelled on the worker pool: submit's
        copied context carries the ambient token, as it does the trace."""
        token = CancelToken()
        token.cancel()
        sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30"
        with build_service(record_queries=False) as service:
            with cancel_scope(token):
                with pytest.raises(QueryCancelled):
                    service.query(sql)
                future = service.submit(sql)
            with pytest.raises(QueryCancelled):
                future.result(timeout=30)
            assert service.metrics.event_count("query.cancelled") == 2

    @pytest.mark.parametrize("route", [Route.ONLINE_AGG, Route.LEARNED])
    def test_latency_only_budget_serves_the_first_batch(self, route):
        """No error budget means best effort: both sampled routes stop after
        one batch even when the latency budget would allow them all."""
        with build_service(record_queries=False) as service:
            if route is Route.LEARNED:
                for low in (1, 12, 25, 38):
                    service.record_answer(
                        f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 14}"
                    )
                service.train()
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 33",
                budget=ServiceBudget(max_latency_s=1e6),
            )
            assert answer.route is route
            assert answer.batches_processed == 1
            assert answer.budget_met

    def test_closed_service_rejects_requests(self):
        service = build_service()
        service.close()
        with pytest.raises(ServiceError):
            service.query("SELECT COUNT(*) FROM sales")
        with pytest.raises(ServiceError):
            service.submit("SELECT COUNT(*) FROM sales")
        service.close()  # idempotent

    def test_unsupported_query_is_still_served(self):
        with build_service() as service:
            answer = service.query(
                "SELECT MAX(revenue) FROM sales WHERE week >= 2 AND week <= 50"
            )
            assert not answer.supported
            assert answer.rows

    def test_zero_estimate_is_not_a_zero_bound(self):
        # A 1 % sample holds none of the 72 rows matching this predicate: the
        # sample estimate is 0.0 with a non-zero error, an unbounded relative
        # error.  It must not meet a 5 % budget (the exact route serves the
        # ask instead), nor be cached and served later as an exact answer.
        table = make_sales_table(num_rows=200_000, num_weeks=52, seed=9)
        catalog = Catalog()
        catalog.add_table(table, fact=True)
        sampling = SamplingConfig(sample_ratio=0.01, num_batches=10, seed=2)
        sql = "SELECT COUNT(*) FROM sales WHERE revenue > 1050"
        with VerdictService(catalog, sampling=sampling, config=CONFIG) as service:
            raw = next(iter(service.aqp.run(parse_query(sql))))
            assert raw.scalar_estimate().value == 0.0
            assert raw.scalar_estimate().error > 0.0
            assert raw.mean_relative_error_bound(1.96) == float("inf")
            interactive = service.query(sql, budget=ServiceBudget.interactive(0.05))
            assert interactive.scalar() == 72.0
            assert interactive.budget_met
            exact = service.query(sql, budget=ServiceBudget.exact())
            assert exact.scalar() == 72.0
            assert exact.relative_error_bound == 0.0


class TestClientQueryErrors:
    BAD = [
        "SELECT AVG(revenue) FROM sales WHERE nosuch < 3",
        "SELECT AVG(revenue) FROM sales WHERE week < 'abc'",
        "SELECT AVG(revenue) FROM sales WHERE region < 3",
        "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 'a' AND 'b'",
    ]

    def test_bad_queries_leave_the_breakers_closed(self):
        # A missing column or a string/number ordering is the client's
        # error: it must neither count against a route's breaker nor fall
        # back to another route, or eight such asks open both breakers and
        # every tenant's next well-formed ask goes exact.
        with build_service() as service:
            service.record_answer(
                "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20"
            )
            for index in range(8):
                with pytest.raises((SchemaError, ExpressionError)):
                    service.query(self.BAD[index % len(self.BAD)])
            states = service.observability()["breakers"]
            assert {route: state["state"] for route, state in states.items()} == {
                "learned": "closed",
                "online_agg": "closed",
            }
            assert service.health()["status"] == "ok"
            answer = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
            )
            assert answer.route in (Route.LEARNED, Route.ONLINE_AGG)

    def test_equality_with_a_string_literal_is_not_an_error(self):
        with build_service() as service:
            answer = service.query(
                "SELECT COUNT(*) FROM sales WHERE week = 'abc'",
                budget=ServiceBudget.exact(),
            )
            assert answer.scalar() == 0.0


class TestCacheInvalidation:
    def test_append_invalidates_cached_exact_count(self):
        with build_service() as service:
            sql = "SELECT COUNT(*) FROM sales"
            before = service.query(sql, budget=ServiceBudget.exact())
            assert before.scalar() == 3_000.0
            assert service.query(sql, budget=ServiceBudget.exact()).from_cache
            service.append("sales", make_sales_table(num_rows=500, num_weeks=52, seed=3))
            after = service.query(sql, budget=ServiceBudget.exact())
            assert not after.from_cache
            assert after.scalar() == 3_500.0

    def test_record_invalidates_cached_learned_answer(self):
        with build_service(record_queries=False) as service:
            sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30"
            service.query(sql)
            assert service.query(sql).from_cache
            service.record_answer(
                "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 40"
            )
            assert not service.query(sql).from_cache

    def test_tighter_budget_bypasses_looser_cached_answer(self):
        with build_service(record_queries=False) as service:
            sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30"
            loose = service.query(sql, budget=ServiceBudget(max_relative_error=0.5))
            assert loose.relative_error_bound > 0.0
            exact = service.query(sql, budget=ServiceBudget.exact())
            assert not exact.from_cache
            assert exact.route is Route.EXACT

    def test_cache_entry_stamped_with_execution_versions(self):
        """An answer computed before a mutation must never be cached as
        current: the version stamp is captured under the table read lock at
        execution time, not read at store time."""
        with build_service(record_queries=False) as service:
            sql = "SELECT COUNT(*) FROM sales"
            parsed, check = service.engine.check(sql)
            decision = service.planner.plan(parsed, check, ServiceBudget.exact())[0]
            _, _, versions = service._execute_route(
                decision, parsed, check, ServiceBudget.exact()
            )
            # A mutation lands between execution and the cache store.
            service.append("sales", make_sales_table(num_rows=100, num_weeks=52, seed=4))
            assert versions[1] != service.catalog.catalog_version
            # The served answer reflects post-append data, not a stale entry.
            answer = service.query(sql, budget=ServiceBudget.exact())
            assert answer.scalar() == 3_100.0

    def test_cache_capacity_is_bounded(self):
        with build_service(record_queries=False, cache_capacity=4) as service:
            for low in range(10):
                service.query(
                    f"SELECT COUNT(*) FROM sales WHERE week >= {low + 1}",
                    budget=ServiceBudget.exact(),
                )
            assert service.cache_size() <= 4


class TestConcurrencyHammer:
    def test_no_torn_answers_under_concurrent_appends(self):
        """Exact COUNT(*) must always equal a row count at an append boundary."""
        service = build_service(max_workers=4)
        base_rows = 3_000
        batch_rows = 250
        num_appends = 4
        valid_counts = {
            float(base_rows + i * batch_rows) for i in range(num_appends + 1)
        }
        observed: list[float] = []
        errors: list[Exception] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    answer = service.query(
                        "SELECT COUNT(*) FROM sales",
                        budget=ServiceBudget.exact(),
                        record=False,
                    )
                    observed.append(answer.scalar())
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)
                    return

        def mixed_reader():
            queries = [
                "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30",
                "SELECT COUNT(*) FROM sales WHERE week >= 10 AND week <= 45",
            ]
            index = 0
            while not stop.is_set():
                try:
                    service.query(queries[index % 2], record=(index % 3 == 0))
                    index += 1
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)] + [
            threading.Thread(target=mixed_reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            for i in range(num_appends):
                service.append(
                    "sales", make_sales_table(num_rows=batch_rows, num_weeks=52, seed=40 + i)
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        service.close()
        assert not errors, errors
        assert observed, "readers never completed a query"
        torn = [count for count in observed if count not in valid_counts]
        assert torn == [], f"torn COUNT(*) answers observed: {torn}"

    def test_cache_never_serves_stale_post_append_count(self):
        """Interleaved cached reads and appends: a count served after append
        ``i`` completed must reflect at least append ``i``."""
        service = build_service(max_workers=4)
        sql = "SELECT COUNT(*) FROM sales"
        floor = 3_000.0
        errors: list[Exception] = []
        floor_lock = threading.Lock()
        stop = threading.Event()

        def reader():
            nonlocal floor
            while not stop.is_set():
                try:
                    with floor_lock:
                        current_floor = floor
                    answer = service.query(sql, budget=ServiceBudget.exact(), record=False)
                    if answer.scalar() < current_floor:
                        raise AssertionError(
                            f"stale answer {answer.scalar()} < floor {current_floor}"
                        )
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(4):
                service.append(
                    "sales", make_sales_table(num_rows=100, num_weeks=52, seed=60 + i)
                )
                with floor_lock:
                    floor = 3_000.0 + (i + 1) * 100.0
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        service.close()
        assert not errors, errors

    def test_concurrent_identical_queries_agree(self):
        with build_service(max_workers=4, record_queries=False) as service:
            sql = "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 48"
            futures = [service.submit(sql) for _ in range(16)]
            answers = [future.result() for future in futures]
            values = {answer.scalar() for answer in answers}
            assert len(values) == 1
            assert any(answer.from_cache for answer in answers[1:]) or len(answers) == 1


class TestBackgroundTraining:
    """train_async: off-the-request-path learning with an atomic swap."""

    TRAINING = [
        "SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {high}".format(
            low=low, high=low + 14
        )
        for low in (1, 8, 16, 25, 33)
    ]

    def _record_trace(self, service):
        for sql in self.TRAINING:
            service.record_answer(sql)

    def test_background_train_matches_synchronous_train(self):
        background = build_service()
        synchronous = build_service()
        try:
            self._record_trace(background)
            self._record_trace(synchronous)
            synchronous.train(learn=True)
            results = background.train_async(learn=True).result(timeout=60)
            assert results
            sync_models = synchronous.engine._models
            async_models = background.engine._models
            assert sync_models.keys() == async_models.keys()
            for key in sync_models:
                assert sync_models[key].length_scales == pytest.approx(
                    async_models[key].length_scales
                )
        finally:
            background.close()
            synchronous.close()

    def test_queries_are_served_while_training_runs(self):
        """The hammer: with the compute phase artificially stalled, queries
        must keep completing -- training never blocks the request path."""
        with build_service(max_workers=2) as service:
            self._record_trace(service)
            entered = threading.Event()
            release = threading.Event()
            real_compute = service.engine.compute_training

            def stalled_compute(snapshot):
                entered.set()
                assert release.wait(timeout=30), "test deadlock"
                return real_compute(snapshot)

            service.engine.compute_training = stalled_compute
            try:
                future = service.train_async(learn=True)
                assert entered.wait(timeout=30)
                # Training is now stuck inside its compute phase.  Queries on
                # every route must still complete promptly.
                for _ in range(4):
                    answer = service.query(
                        "SELECT COUNT(*) FROM sales", budget=ServiceBudget.exact()
                    )
                    assert answer.scalar() == 3_000.0
                learned = service.query(
                    "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25",
                    record=False,
                )
                assert learned.rows
                assert not future.done()
            finally:
                release.set()
            results = future.result(timeout=60)
            assert results
            # The swap landed: the learned models are installed.
            assert service.engine._models.keys() == results.keys()

    def test_concurrent_train_async_returns_the_inflight_future(self):
        with build_service() as service:
            self._record_trace(service)
            release = threading.Event()
            real_compute = service.engine.compute_training

            def stalled_compute(snapshot):
                assert release.wait(timeout=30)
                return real_compute(snapshot)

            service.engine.compute_training = stalled_compute
            try:
                first = service.train_async()
                second = service.train_async()
                assert first is second
            finally:
                release.set()
            first.result(timeout=60)

    def test_recording_during_training_forces_the_next_round(self):
        with build_service() as service:
            self._record_trace(service)
            service.train_async(learn=False).result(timeout=60)
            assert service.engine.training_current(False)
            service.record_answer(
                "SELECT AVG(revenue) FROM sales WHERE week >= 40 AND week <= 50"
            )
            assert not service.engine.training_current(False)

    def test_training_invalidates_cached_answers(self):
        """Retraining swaps models in, so older cached answers (stamped with
        the previous state epoch) must never be served again."""
        with build_service(record_queries=False) as service:
            self._record_trace(service)
            service.train()
            sql = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
            first = service.query(sql)
            assert service.query(sql).from_cache  # warm before retraining
            service.record_answer(
                "SELECT AVG(revenue) FROM sales WHERE week >= 42 AND week <= 50"
            )
            service.train_async(learn=True).result(timeout=60)
            after = service.query(sql)
            assert not after.from_cache
            assert after.route is not Route.CACHED
            assert first.rows  # the old answer itself was fine, just retired

    def test_auto_train_every_triggers_background_training(self):
        with build_service(auto_train_every=3) as service:
            assert service.engine._last_training is None
            self._record_trace(service)
            deadline = threading.Event()
            for _ in range(100):
                if service.engine._last_training is not None:
                    break
                deadline.wait(0.05)
            assert service.engine._last_training is not None

    def test_close_waits_for_inflight_training(self):
        service = build_service()
        self._record_trace(service)
        release = threading.Event()
        real_compute = service.engine.compute_training
        applied = []

        def stalled_compute(snapshot):
            assert release.wait(timeout=30)
            outcome = real_compute(snapshot)
            applied.append(True)
            return outcome

        service.engine.compute_training = stalled_compute
        future = service.train_async()
        closer = threading.Thread(target=service.close)
        closer.start()
        release.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert applied
        assert future.done()


class TestRestartEquivalence:
    def test_restarted_service_matches_never_stopped_service(self, tmp_path):
        """ISSUE 3 acceptance: restart from the store, then replay the same
        trace on both services -- answers must be identical."""
        budget = ServiceBudget.interactive(0.1)
        workload, continuous = customer1_service()
        _, stopping = customer1_service(store=SynopsisStore(tmp_path))

        trace = workload.generate_trace(num_queries=30, seed=8)
        ingest = [q.sql for q in trace[:15]]
        replay = [q.sql for q in trace[15:]]

        for service in (continuous, stopping):
            for sql in ingest:
                service.record_answer(sql)
            service.train()
            for sql in ingest[:4]:
                service.query(sql, budget=budget, record=True)

        stopping.close()
        _, restarted = customer1_service(store=SynopsisStore(tmp_path))
        assert restarted.restored
        assert len(restarted.engine.synopsis) == len(continuous.engine.synopsis)

        for sql in replay:
            expected = continuous.query(sql, budget=budget, record=True)
            actual = restarted.query(sql, budget=budget, record=True)
            assert actual.route == expected.route
            assert actual.rows == expected.rows
            assert actual.relative_error_bound == expected.relative_error_bound
        continuous.close()
        restarted.close()

    def test_shutdown_flushes_store_and_restart_restores(self, tmp_path):
        store = SynopsisStore(tmp_path)
        with build_service(store=store) as service:
            for low in (1, 15, 30):
                service.record_answer(
                    f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 12}"
                )
            service.train()
            recorded = len(service.engine.synopsis)
        assert store.exists()
        reborn = build_service(store=SynopsisStore(tmp_path))
        assert reborn.restored
        assert len(reborn.engine.synopsis) == recorded
        reborn.close()


class TestReadWriteLock:
    def test_readers_are_concurrent_and_writers_exclusive(self):
        lock = ReadWriteLock()
        active = {"readers": 0, "writers": 0}
        peak = {"readers": 0}
        violations: list[str] = []
        guard = threading.Lock()
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            with lock.read():
                with guard:
                    active["readers"] += 1
                    peak["readers"] = max(peak["readers"], active["readers"])
                    if active["writers"]:
                        violations.append("reader overlapped writer")
                import time

                time.sleep(0.02)
                with guard:
                    active["readers"] -= 1

        def write():
            barrier.wait()
            with lock.write():
                with guard:
                    active["writers"] += 1
                    if active["readers"] or active["writers"] > 1:
                        violations.append("writer overlapped")
                import time

                time.sleep(0.01)
                with guard:
                    active["writers"] -= 1

        threads = [threading.Thread(target=read) for _ in range(3)] + [
            threading.Thread(target=write)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert violations == []
        assert peak["readers"] >= 2, "readers never ran concurrently"


def test_served_answer_group_rows_match_exact(tmp_path):
    """Grouped answers keep group identities across routes."""
    workload, service = customer1_service()
    with service:
        answer = service.query(
            "SELECT region, SUM(revenue) FROM sales "
            "JOIN dim_store ON store_key = store_key GROUP BY region",
            budget=ServiceBudget.exact(),
        )
        groups = {row.group_values[0] for row in answer.rows}
        assert groups == {f"region_{i}" for i in range(8)}
        assert all(np.isfinite(list(row.values.values())).all() for row in answer.rows)


class TestShutdownOrdering:
    """ISSUE 6 regression: close() must drain direct in-flight requests
    before the final store snapshot, write exactly one snapshot under
    concurrent closers, and never persist anything behind it."""

    def test_close_waits_for_direct_inflight_query(self, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        service = build_service(store=store)
        started = threading.Event()
        release = threading.Event()
        original_record = service.engine.record

        def slow_record(parsed, raw):
            started.set()
            assert release.wait(timeout=10)
            return original_record(parsed, raw)

        service.engine.record = slow_record
        outcome: dict = {}

        def request():
            # Direct call (not submit): the worker pool never sees it, so
            # only the in-flight drain can make close() wait for it.
            outcome["answer"] = service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 40",
                record=True,
            )

        requester = threading.Thread(target=request)
        requester.start()
        assert started.wait(timeout=10)

        closer = threading.Thread(target=service.close)
        closer.start()
        # close() is draining but must not have snapshotted yet: the
        # in-flight request's record has not happened.
        deadline = 5.0
        while service.lifecycle_phase != "draining" and deadline > 0:
            threading.Event().wait(0.01)
            deadline -= 0.01
        assert service.lifecycle_phase == "draining"
        assert store.snapshots_written == 0
        release.set()
        requester.join(timeout=10)
        closer.join(timeout=10)
        assert service.lifecycle_phase == "closed"
        assert store.snapshots_written == 1
        assert outcome["answer"].recorded

        # The final snapshot captured the in-flight request's mutation:
        # a service restored from the store holds its snippet.
        restored = build_service(store=SynopsisStore(tmp_path / "store"))
        try:
            assert restored.restored
            assert len(list(restored.engine.synopsis.keys())) >= 1
        finally:
            restored.close()

    def test_concurrent_close_single_snapshot(self, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        service = build_service(store=store)
        service.record_answer(
            "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
        )
        barrier = threading.Barrier(6)

        def close():
            barrier.wait()
            service.close()
            # Every closer, not just the winning one, returns only after
            # the final snapshot is durable.
            assert service.lifecycle_phase == "closed"
            assert store.snapshots_written == 1

        threads = [threading.Thread(target=close) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert store.snapshots_written == 1

    def test_closed_service_is_freed_without_the_cycle_collector(self):
        # Reference counting alone must free a closed service: a reference
        # cycle through it would keep its engine, catalog and samples
        # alive until a gen-2 collection happened to run.
        gc.collect()
        gc.disable()
        try:
            service = build_service()
            catalog = service.catalog
            service.record_answer(
                "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
            )
            service.train()
            service.query(
                "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 30",
                budget=ServiceBudget.interactive(0.5),
            )
            service.close()
            service_ref, catalog_ref = weakref.ref(service), weakref.ref(catalog)
            del service, catalog
            assert service_ref() is None
            assert catalog_ref() is None
        finally:
            gc.enable()

    def test_flush_after_close_is_noop(self, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        service = build_service(store=store)
        service.record_answer(
            "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25"
        )
        service.close()
        snapshot_bytes = (tmp_path / "store" / "snapshot.json").read_bytes()
        assert service.flush() == "noop"
        assert (tmp_path / "store" / "snapshot.json").read_bytes() == snapshot_bytes
        assert store.deltas_written == 0 or not (tmp_path / "store" / "deltas.jsonl").read_text()

    def test_draining_service_rejects_new_requests(self):
        service = build_service()
        release = threading.Event()
        started = threading.Event()
        original = service.exact.execute

        def slow_execute(parsed):
            started.set()
            assert release.wait(timeout=10)
            return original(parsed)

        service.exact.execute = slow_execute
        requester = threading.Thread(
            target=service.query,
            args=("SELECT COUNT(*) FROM sales",),
            kwargs={"budget": ServiceBudget.exact()},
        )
        requester.start()
        assert started.wait(timeout=10)
        closer = threading.Thread(target=service.close)
        closer.start()
        deadline = 5.0
        while service.lifecycle_phase != "draining" and deadline > 0:
            threading.Event().wait(0.01)
            deadline -= 0.01
        with pytest.raises(ServiceError):
            service.query("SELECT COUNT(*) FROM sales")
        release.set()
        requester.join(timeout=10)
        closer.join(timeout=10)
        assert service.lifecycle_phase == "closed"
