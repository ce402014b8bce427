"""Unit tests for the Verdict engine facade (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import VerdictConfig
from repro.core.engine import VerdictEngine
from repro.core.snippet import AggregateKind
from repro.db.schema import measure
from repro.sqlparser.parser import parse_query
from tests.conftest import train_verdict

TRAINING_QUERIES = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 12",
    "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 16 AND week <= 30",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 40",
    "SELECT AVG(revenue) FROM sales WHERE week >= 35 AND week <= 52",
    "SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT COUNT(*) FROM sales WHERE week >= 15 AND week <= 35",
    "SELECT COUNT(*) FROM sales WHERE week >= 30 AND week <= 52",
]


class TestCheckAndPassthrough:
    def test_check_parses_strings(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        parsed, check = verdict.check("SELECT COUNT(*) FROM sales WHERE week = 1")
        assert check.supported
        parsed2, check2 = verdict.check(parsed)
        assert parsed2 is parsed

    def test_unsupported_query_passes_through(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        answers = verdict.execute("SELECT MAX(revenue) FROM sales WHERE week <= 5")
        assert answers
        final = answers[-1]
        assert not final.supported
        assert final.unsupported_reasons
        estimate = final.scalar_estimate()
        assert estimate.value == estimate.raw_value
        assert not estimate.improved
        # Unsupported queries are never recorded in the synopsis.
        assert len(verdict.synopsis) == 0

    def test_supported_query_recorded(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        verdict.execute("SELECT AVG(revenue) FROM sales WHERE week <= 10", max_batches=2)
        assert len(verdict.synopsis) == 1
        keys = verdict.synopsis.keys()
        assert keys[0].kind is AggregateKind.AVG

    def test_sum_records_avg_and_freq_snippets(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        verdict.execute("SELECT SUM(revenue) FROM sales WHERE week <= 10", max_batches=1)
        kinds = {key.kind for key in verdict.synopsis.keys()}
        assert kinds == {AggregateKind.AVG, AggregateKind.FREQ}
        assert len(verdict.synopsis) == 2

    def test_group_by_records_one_snippet_per_group(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        answers = verdict.execute(
            "SELECT region, COUNT(*) FROM sales GROUP BY region", max_batches=1
        )
        groups = len(answers[-1].rows)
        assert len(verdict.synopsis) == groups

    def test_record_can_be_disabled(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        verdict.execute("SELECT COUNT(*) FROM sales", max_batches=1, record=False)
        assert len(verdict.synopsis) == 0


class TestImprovement:
    def test_theorem1_improved_error_never_exceeds_raw(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES)
        test_queries = [
            "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 25",
            "SELECT COUNT(*) FROM sales WHERE week >= 5 AND week <= 45",
            "SELECT SUM(revenue) FROM sales WHERE week >= 20 AND week <= 35",
        ]
        for sql in test_queries:
            for answer in verdict.execute(sql, max_batches=3):
                for row in answer.rows:
                    for estimate in row.estimates.values():
                        assert estimate.error <= estimate.raw_error + 1e-9

    def test_improvement_actually_tightens_bounds(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES)
        answers = verdict.execute(
            "SELECT AVG(revenue) FROM sales WHERE week >= 12 AND week <= 28", max_batches=2
        )
        estimate = answers[-1].scalar_estimate()
        assert estimate.improved
        assert estimate.error < estimate.raw_error

    def test_improved_answer_closer_to_exact_on_average(self, verdict_setup):
        catalog, _, verdict, exact = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES)
        raw_errors, improved_errors = [], []
        for low, high in [(5, 18), (11, 29), (22, 44), (31, 50), (8, 40)]:
            sql = f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {high}"
            truth = exact.execute(parse_query(sql)).scalar()
            answer = verdict.execute(sql, max_batches=1)[-1]
            estimate = answer.scalar_estimate()
            raw_errors.append(abs(estimate.raw_value - truth))
            improved_errors.append(abs(estimate.value - truth))
        assert np.mean(improved_errors) <= np.mean(raw_errors) + 1e-9

    def test_improvement_counts_and_stats(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES)
        answer = verdict.execute(
            "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30", max_batches=1
        )[-1]
        assert answer.improvement_count() >= 1
        assert verdict.queries_processed >= 1
        assert verdict.total_overhead_seconds > 0
        assert verdict.synopsis_size() == len(verdict.synopsis)
        assert verdict.memory_footprint_bytes() > 0

    def test_overhead_is_small(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES)
        answer = verdict.execute(
            "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30", max_batches=1
        )[-1]
        assert answer.overhead_seconds < 0.5  # well under the raw latency scale

    def test_run_does_not_record(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        size_before = len(verdict.synopsis)
        for _ in verdict.run("SELECT COUNT(*) FROM sales WHERE week <= 5"):
            break
        assert len(verdict.synopsis) == size_before


class TestTraining:
    def test_train_builds_models_and_prepared_state(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        results = verdict.train(learn_length_scales_flag=False)
        assert results
        for key, learned in results.items():
            assert learned.key == key
            assert verdict.model_for(key).length_scales

    def test_model_override(self, verdict_setup):
        from repro.core.covariance import AggregateModel

        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        key = verdict.synopsis.keys()[0]
        verdict.set_model(key, AggregateModel(key=key, length_scales={"week": 1.0}))
        assert verdict.model_for(key).length_scales["week"] == 1.0

    def test_domains_include_measures_and_dimensions(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        domains = verdict.domains_for("sales")
        assert "week" in domains.numeric
        assert "revenue" in domains.numeric
        assert "region" in domains.categorical


class TestTrainingFastPath:
    """Skip logic, warm starts, and the snapshot/compute/apply phases."""

    def test_repeated_train_skips_when_nothing_changed(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        first = verdict.train(learn_length_scales_flag=False)
        epoch = verdict.state_epoch
        again = verdict.train(learn_length_scales_flag=False)
        assert again == first
        assert verdict.state_epoch == epoch  # no state churn on the skip path

    def test_flag_change_defeats_the_skip(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        verdict.train(learn_length_scales_flag=False)
        epoch = verdict.state_epoch
        verdict.train(learn_length_scales_flag=True)
        assert verdict.state_epoch > epoch

    def test_recording_defeats_the_skip(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        verdict.train(learn_length_scales_flag=False)
        epoch = verdict.state_epoch
        parsed, _ = verdict.check(TRAINING_QUERIES[4])
        verdict.record(parsed, verdict.aqp.final_answer(parsed))
        verdict.train(learn_length_scales_flag=False)
        assert verdict.state_epoch > epoch

    def test_set_model_defeats_the_skip(self, verdict_setup):
        from repro.core.covariance import AggregateModel

        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        first = verdict.train(learn_length_scales_flag=True)
        key = verdict.synopsis.keys()[0]
        verdict.set_model(key, AggregateModel(key=key, length_scales={"week": 1.0}))
        second = verdict.train(learn_length_scales_flag=True)
        # Training overrides the injected model again.
        assert verdict.model_for(key).length_scales == second[key].length_scales
        assert first.keys() == second.keys()

    def test_second_train_warm_starts_from_learned_scales(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4], learn=True)
        snapshot = verdict.training_snapshot(True)
        learned_keys = [
            entry.key for entry in snapshot.entries if entry.warm_start is not None
        ]
        trained = verdict._learned
        assert any(t.optimized_attributes for t in trained.values()) == bool(
            learned_keys
        )
        for entry in snapshot.entries:
            if entry.warm_start is not None:
                assert entry.warm_start == dict(trained[entry.key].length_scales)

    def test_phased_training_matches_monolithic_train(self, sales_catalog, fast_sampling):
        from repro.aqp.online_agg import OnlineAggregationEngine
        from repro.config import VerdictConfig
        from repro.core.engine import VerdictEngine

        def build():
            aqp = OnlineAggregationEngine(sales_catalog, sampling=fast_sampling)
            config = VerdictConfig(learn_length_scales=True, learning_restarts=1)
            engine = VerdictEngine(sales_catalog, aqp, config=config)
            for sql in TRAINING_QUERIES[:4]:
                parsed, check = engine.check(sql)
                if check.supported:
                    engine.record(parsed, engine.aqp.final_answer(parsed))
            return engine

        monolithic = build()
        phased = build()
        expected = monolithic.train()
        snapshot = phased.training_snapshot()
        outcome = phased.compute_training(snapshot)
        actual = phased.apply_training(outcome)
        assert expected.keys() == actual.keys()
        for key in expected:
            assert expected[key].length_scales == actual[key].length_scales
        for key in monolithic._prepared:
            assert key in phased._prepared
            np.testing.assert_array_equal(
                monolithic._prepared[key].cho[0], phased._prepared[key].cho[0]
            )

    def test_stale_outcome_never_overwrites_a_newer_round(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        old_snapshot = verdict.training_snapshot(False)
        old_outcome = verdict.compute_training(old_snapshot)
        # A newer round completes while the old one was (conceptually)
        # still computing.
        parsed, _ = verdict.check(TRAINING_QUERIES[4])
        verdict.record(parsed, verdict.aqp.final_answer(parsed))
        newer = verdict.train(learn_length_scales_flag=False)
        marker = verdict._trained_marker
        models = dict(verdict._models)
        returned = verdict.apply_training(old_outcome)
        assert returned.keys() == old_outcome.results.keys()
        assert verdict._trained_marker == marker  # nothing installed
        assert verdict._models == models
        assert verdict._last_training.keys() == newer.keys()

    def test_apply_drops_factorisations_dirtied_while_computing(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:4])
        snapshot = verdict.training_snapshot(False)
        outcome = verdict.compute_training(snapshot)
        # A non-append mutation (the Appendix D adjustment) lands on every
        # key between compute and apply.
        verdict.synopsis.transform_all(lambda snippet: snippet)
        results = verdict.apply_training(outcome)
        assert results
        assert not verdict._prepared  # stale factors dropped, rebuilt lazily
        # And the next train must not be skipped (the synopsis moved on).
        assert not verdict.training_current(False)


class TestFactorSchedule:
    """The log of lazy factor growth a persistent store turns into deltas."""

    def test_events_are_logged_in_order_and_barriers_clear_them(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:3])
        verdict.train(learn_length_scales_flag=False)
        epoch = verdict.state_epoch
        assert verdict.factor_events_since(epoch) == []
        parsed, _ = verdict.check(TRAINING_QUERIES[3])
        verdict.record(parsed, verdict.aqp.final_answer(parsed))
        assert verdict.factor_events_since(epoch) == []  # recording grows nothing
        verdict.execute(TRAINING_QUERIES[4], record=False)
        (event,) = verdict.factor_events_since(epoch)
        assert event == (parsed_key(verdict, AggregateKind.AVG), verdict.synopsis.version)
        assert verdict.state_epoch == epoch + 1
        verdict.execute(TRAINING_QUERIES[4], record=False)  # factor is current
        assert len(verdict.factor_events_since(epoch)) == 1
        assert verdict.factor_events_since(verdict.state_epoch + 1) is None
        verdict.forget_factor_events(verdict.state_epoch)
        assert verdict.factor_events_since(epoch) is None
        assert verdict.factor_events_since(verdict.state_epoch) == []
        verdict.train(learn_length_scales_flag=True)  # a barrier
        assert verdict.factor_events_since(epoch + 1) is None

    def test_schedule_is_bounded_without_a_consumer(self, verdict_setup):
        from repro.core import engine as engine_module

        _, _, verdict, _ = verdict_setup
        train_verdict(verdict, TRAINING_QUERIES[:2])
        key = parsed_key(verdict, AggregateKind.AVG)
        start = verdict.state_epoch
        for version in range(10_000):
            verdict._note_factor_event(key, version)
        assert verdict.state_epoch == start + 10_000
        assert len(verdict._factor_events) == engine_module._FACTOR_SCHEDULE_LIMIT
        assert verdict.factor_events_since(start) is None  # trimmed: snapshot
        recent = verdict.state_epoch - 10
        assert verdict.factor_events_since(recent) == [
            (key, version) for version in range(9_990, 10_000)
        ]

    def test_real_growth_never_outgrows_the_bound(self, verdict_setup, monkeypatch):
        from repro.core import engine as engine_module

        monkeypatch.setattr(engine_module, "_FACTOR_SCHEDULE_LIMIT", 4)
        _, _, verdict, _ = verdict_setup
        start = verdict.state_epoch
        for low in range(1, 13):
            verdict.execute(
                f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 9}",
                max_batches=1,
            )
        assert verdict.state_epoch >= start + 10
        assert len(verdict._factor_events) == 4
        assert verdict.factor_events_since(start) is None


def parsed_key(verdict, kind):
    (key,) = [key for key in verdict.synopsis.keys() if key.kind is kind]
    return key


class TestTimeBound:
    def test_time_bound_requires_engine(self, verdict_setup):
        _, _, verdict, _ = verdict_setup
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            verdict.execute_time_bound("SELECT COUNT(*) FROM sales", 1.0)

    def test_time_bound_execution(self, sales_catalog, fast_sampling):
        from repro.aqp.time_bound import TimeBoundEngine

        aqp = OnlineAggregationEngine(sales_catalog, sampling=fast_sampling)
        time_bound = TimeBoundEngine(
            sales_catalog, sampling=fast_sampling, sample_store=aqp.samples
        )
        verdict = VerdictEngine(
            sales_catalog,
            aqp,
            config=VerdictConfig(learn_length_scales=False),
            time_bound_engine=time_bound,
        )
        train_verdict(verdict, TRAINING_QUERIES[:4])
        answer = verdict.execute_time_bound(
            "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30", 2.0
        )
        estimate = answer.scalar_estimate()
        assert estimate.error <= estimate.raw_error + 1e-9


class TestDataAppend:
    def test_register_append_adjusts_snippets(self, small_sales_table, fast_sampling):
        from repro.db.catalog import Catalog
        from repro.workloads.synthetic import make_sales_table

        catalog = Catalog()
        catalog.add_table(small_sales_table, fact=True)
        aqp = OnlineAggregationEngine(catalog, sampling=fast_sampling)
        verdict = VerdictEngine(catalog, aqp, config=VerdictConfig(learn_length_scales=False))
        train_verdict(verdict, TRAINING_QUERIES[:4])
        before = {
            snippet.snippet_id: snippet
            for key in verdict.synopsis.keys()
            for snippet in verdict.synopsis.snippets_for(key)
        }
        rows_before = catalog.cardinality("sales")

        appended = make_sales_table(num_rows=1_000, num_weeks=52, seed=77, name="sales")
        shifted = appended.with_column(
            measure("revenue"), np.asarray(appended.column("revenue")) + 150.0
        )
        adjusted = verdict.register_append("sales", shifted)
        assert adjusted == len(before)
        assert catalog.cardinality("sales") == rows_before + 1_000
        after = {
            snippet.snippet_id: snippet
            for key in verdict.synopsis.keys()
            for snippet in verdict.synopsis.snippets_for(key)
        }
        for snippet_id, old in before.items():
            new = after[snippet_id]
            assert new.raw_error >= old.raw_error
            if old.key.kind is AggregateKind.AVG:
                assert new.raw_answer > old.raw_answer  # appended revenue is higher

    def test_register_append_without_adjustment(self, small_sales_table, fast_sampling):
        from repro.db.catalog import Catalog
        from repro.workloads.synthetic import make_sales_table

        catalog = Catalog()
        catalog.add_table(small_sales_table, fact=True)
        aqp = OnlineAggregationEngine(catalog, sampling=fast_sampling)
        verdict = VerdictEngine(catalog, aqp, config=VerdictConfig(learn_length_scales=False))
        train_verdict(verdict, TRAINING_QUERIES[:2])
        appended = make_sales_table(num_rows=500, num_weeks=52, seed=78, name="sales")
        adjusted = verdict.register_append("sales", appended, adjust=False)
        assert adjusted == 0
