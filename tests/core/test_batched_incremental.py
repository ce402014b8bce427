"""Equivalence tests for the batched and incremental inference paths.

The acceptance bar for the batched/incremental refactor:

* batched group-by inference (:meth:`GaussianInference.infer_batch`) matches
  the legacy per-cell path (:meth:`GaussianInference.infer`) within 1e-8;
* a rank-k-extended Cholesky factor matches a from-scratch ``cho_factor`` of
  the same covariance matrix after appends;
* the engine produces identical answers with ``batched_inference`` on and
  off, and actually extends (rather than rebuilds) its prepared
  factorisations as queries are recorded.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig, VerdictConfig
from repro.core import linalg
from repro.core.covariance import AggregateModel
from repro.core.engine import VerdictEngine
from repro.core.inference import GaussianInference
from repro.core.prior import observation_error
from repro.core.regions import AttributeDomains, NumericDomain, NumericRange, Region
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.core.synopsis import QuerySynopsis

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
DOMAINS = AttributeDomains(numeric={"x": NumericDomain("x", 0.0, 100.0, 0.1)})
MODEL = AggregateModel(key=KEY, length_scales={"x": 25.0})


def snippet(low, high, answer, error=0.5):
    region = Region(numeric_ranges=(NumericRange("x", low, high),))
    return Snippet(key=KEY, region=region, raw_answer=answer, raw_error=error)


def synthetic_snippets(count, seed=0, error=0.5):
    rng = np.random.default_rng(seed)
    snippets = []
    for _ in range(count):
        low = float(rng.uniform(0, 90))
        high = float(min(low + rng.uniform(2, 25), 100.0))
        center = 0.5 * (low + high)
        answer = float(10.0 + 0.1 * center + rng.normal(0, 0.3))
        snippets.append(snippet(low, high, answer, error=error))
    return snippets


class TestBatchedEquivalence:
    @pytest.mark.parametrize("calibrate", [True, False])
    def test_batched_matches_scalar_within_1e_8(self, calibrate):
        inference = GaussianInference(VerdictConfig(calibrate_model_variance=calibrate))
        past = synthetic_snippets(24, seed=1)
        prepared = inference.prepare(KEY, past, MODEL, DOMAINS)
        news = synthetic_snippets(64, seed=2, error=0.8)

        batched = inference.infer_batch(prepared, news)
        assert len(batched) == len(news)
        # A second factorisation, so the one-cell solves below are computed
        # rather than read back from the first one's posterior memo.
        scalar_prepared = inference.prepare(KEY, past, MODEL, DOMAINS)
        for new, batch_result in zip(news, batched):
            scalar_result = inference.infer(scalar_prepared, new)
            assert batch_result.model_answer == pytest.approx(
                scalar_result.model_answer, rel=1e-8, abs=1e-10
            )
            assert batch_result.model_error == pytest.approx(
                scalar_result.model_error, rel=1e-8, abs=1e-10
            )
            assert batch_result.gp_mean == pytest.approx(
                scalar_result.gp_mean, rel=1e-8, abs=1e-10
            )
            assert batch_result.past_snippets_used == scalar_result.past_snippets_used

    def test_batched_with_empty_prepared_passes_raw_through(self):
        inference = GaussianInference()
        news = synthetic_snippets(5, seed=3)
        results = inference.infer_batch(None, news)
        for new, result in zip(news, results):
            assert result.model_answer == new.raw_answer
            assert result.model_error == new.raw_error
            assert result.past_snippets_used == 0

    def test_batched_empty_input(self):
        inference = GaussianInference()
        past = synthetic_snippets(4, seed=4)
        prepared = inference.prepare(KEY, past, MODEL, DOMAINS)
        assert inference.infer_batch(prepared, []) == []


class TestIncrementalExtension:
    def test_extended_factor_matches_from_scratch_cho_factor(self):
        inference = GaussianInference(VerdictConfig())
        base = synthetic_snippets(20, seed=5)
        appended = synthetic_snippets(6, seed=6)
        prepared = inference.prepare(KEY, base, MODEL, DOMAINS, synopsis_version=1)
        extended = inference.extend(prepared, appended, synopsis_version=2)
        assert extended is not None
        assert extended.size == 26
        assert extended.base_size == 20
        assert extended.appended_since_base == 6
        assert extended.synopsis_version == 2

        # Rebuild the same matrix (frozen sigma2 and jitter) from scratch.
        everything = base + appended
        factors = prepared.covariance.factor_matrix(everything)
        noise = np.array(
            [observation_error(s, DOMAINS) ** 2 for s in everything], dtype=np.float64
        )
        matrix = prepared.sigma2 * factors + np.diag(noise)
        matrix[np.diag_indices_from(matrix)] += prepared.jitter
        scratch = cho_factor(matrix, lower=True)
        np.testing.assert_allclose(
            linalg.lower_triangle(extended.cho), np.tril(scratch[0]), rtol=1e-8, atol=1e-10
        )

    def test_extended_inference_matches_frozen_sigma_rebuild(self):
        """Inference through the extended factor equals solving the rebuilt
        system directly (same sigma2), so the extension loses no accuracy."""
        inference = GaussianInference(VerdictConfig(calibrate_model_variance=False))
        base = synthetic_snippets(16, seed=7)
        appended = synthetic_snippets(4, seed=8)
        prepared = inference.prepare(KEY, base, MODEL, DOMAINS)
        extended = inference.extend(prepared, appended)
        new = snippet(40, 55, 15.0, error=1.0)
        result = inference.infer(extended, new)

        everything = base + appended
        factors = prepared.covariance.factor_matrix(everything)
        noise = np.array(
            [observation_error(s, DOMAINS) ** 2 for s in everything], dtype=np.float64
        )
        matrix = prepared.sigma2 * factors + np.diag(noise)
        matrix[np.diag_indices_from(matrix)] += prepared.jitter
        observations = np.array([s.raw_answer for s in everything])
        mean = observations.mean()
        cross = prepared.sigma2 * prepared.covariance.factor_matrix(
            everything, [new]
        ).ravel()
        gp_mean = mean + float(cross @ np.linalg.solve(matrix, observations - mean))
        assert result.gp_mean == pytest.approx(gp_mean, rel=1e-8)

    def test_extension_refreshes_calibration_and_inverse_diagonal(self):
        inference = GaussianInference(VerdictConfig(calibrate_model_variance=True))
        base = synthetic_snippets(12, seed=9)
        appended = synthetic_snippets(5, seed=10)
        prepared = inference.prepare(KEY, base, MODEL, DOMAINS)
        extended = inference.extend(prepared, appended)
        assert extended.inverse_diagonal is not None
        assert len(extended.inverse_diagonal) == 17
        assert extended.calibration >= 1.0
        # The maintained diagonal matches a from-scratch inverse.
        everything = base + appended
        factors = prepared.covariance.factor_matrix(everything)
        noise = np.array(
            [observation_error(s, DOMAINS) ** 2 for s in everything], dtype=np.float64
        )
        matrix = prepared.sigma2 * factors + np.diag(noise)
        matrix[np.diag_indices_from(matrix)] += prepared.jitter
        np.testing.assert_allclose(
            extended.inverse_diagonal, np.diag(np.linalg.inv(matrix)), rtol=1e-6
        )

    def test_extend_with_no_snippets_returns_same_object(self):
        inference = GaussianInference()
        prepared = inference.prepare(KEY, synthetic_snippets(5, seed=11), MODEL, DOMAINS)
        assert inference.extend(prepared, []) is prepared


class TestSynopsisChangeLog:
    def test_appends_tracked_per_key(self):
        synopsis = QuerySynopsis(capacity_per_key=10)
        base_version = synopsis.version
        first = synopsis.add(snippet(0, 10, 1.0))
        second = synopsis.add(snippet(10, 20, 2.0))
        delta = synopsis.changes_since(base_version)
        assert delta is not None
        assert delta.appended == {KEY: [first, second]}
        assert not delta.dirty

    def test_delta_excludes_already_seen_versions(self):
        synopsis = QuerySynopsis(capacity_per_key=10)
        synopsis.add(snippet(0, 10, 1.0))
        seen = synopsis.version
        third = synopsis.add(snippet(20, 30, 3.0))
        delta = synopsis.changes_since(seen)
        assert delta.appended == {KEY: [third]}

    def test_transform_marks_key_dirty(self):
        synopsis = QuerySynopsis(capacity_per_key=10)
        synopsis.add(snippet(0, 10, 1.0))
        seen = synopsis.version
        synopsis.add(snippet(10, 20, 2.0))
        synopsis.transform(KEY, lambda s: s.with_adjustment(0.5, 0.0))
        delta = synopsis.changes_since(seen)
        assert KEY in delta.dirty
        # Appends folded into the dirty key are not reported separately.
        assert KEY not in delta.appended

    def test_eviction_marks_key_dirty(self):
        synopsis = QuerySynopsis(capacity_per_key=2)
        synopsis.add(snippet(0, 10, 1.0))
        synopsis.add(snippet(10, 20, 2.0))
        seen = synopsis.version
        synopsis.add(snippet(20, 30, 3.0))  # evicts the oldest
        delta = synopsis.changes_since(seen)
        assert KEY in delta.dirty

    def test_clear_marks_all_keys_dirty(self):
        synopsis = QuerySynopsis(capacity_per_key=10)
        synopsis.add(snippet(0, 10, 1.0))
        seen = synopsis.version
        synopsis.clear()
        delta = synopsis.changes_since(seen)
        assert KEY in delta.dirty

    def test_too_old_version_returns_none(self):
        synopsis = QuerySynopsis(capacity_per_key=10, change_log_limit=4)
        for index in range(10):
            synopsis.add(snippet(index, index + 1, float(index)))
        assert synopsis.changes_since(0) is None
        recent = synopsis.version
        synopsis.add(snippet(50, 60, 5.0))
        assert synopsis.changes_since(recent) is not None

    def test_future_version_returns_none(self):
        synopsis = QuerySynopsis()
        assert synopsis.changes_since(99) is None

    def test_non_positive_change_log_limit_rejected(self):
        from repro.errors import SynopsisError

        with pytest.raises(SynopsisError):
            QuerySynopsis(change_log_limit=0)
        with pytest.raises(SynopsisError):
            QuerySynopsis(change_log_limit=-1)


TRAINING_QUERIES = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 12",
    "SELECT AVG(revenue) FROM sales WHERE week >= 8 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 16 AND week <= 30",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 40",
    "SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT COUNT(*) FROM sales WHERE week >= 15 AND week <= 35",
]

TEST_QUERIES = [
    "SELECT region, AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25 GROUP BY region",
    "SELECT region, SUM(revenue) FROM sales WHERE week >= 10 AND week <= 30 GROUP BY region",
    "SELECT category, COUNT(*) FROM sales WHERE week >= 12 AND week <= 28 GROUP BY category",
]


def build_engine(sales_catalog, config):
    aqp = OnlineAggregationEngine(
        sales_catalog, sampling=SamplingConfig(sample_ratio=0.2, num_batches=4, seed=3)
    )
    return VerdictEngine(sales_catalog, aqp, config=config)


class TestEngineBatchedPath:
    def test_batched_and_legacy_engines_agree(self, sales_catalog):
        base = VerdictConfig(learn_length_scales=False)
        engines = {
            "batched": build_engine(sales_catalog, base.with_options(batched_inference=True)),
            "legacy": build_engine(
                sales_catalog,
                base.with_options(batched_inference=False, incremental_updates=False),
            ),
        }
        answers = {}
        for label, engine in engines.items():
            for sql in TRAINING_QUERIES:
                engine.execute(sql, max_batches=2)
            engine.train()
            answers[label] = [
                engine.execute(sql, max_batches=2, record=False)[-1]
                for sql in TEST_QUERIES
            ]
        for batched_answer, legacy_answer in zip(answers["batched"], answers["legacy"]):
            assert len(batched_answer.rows) == len(legacy_answer.rows)
            for brow, lrow in zip(batched_answer.rows, legacy_answer.rows):
                assert brow.group_values == lrow.group_values
                for name, bcell in brow.estimates.items():
                    lcell = lrow.estimates[name]
                    assert bcell.value == pytest.approx(lcell.value, rel=1e-8, abs=1e-10)
                    assert bcell.error == pytest.approx(lcell.error, rel=1e-8, abs=1e-10)
                    assert bcell.improved == lcell.improved

    def test_recording_extends_instead_of_rebuilding(self, sales_catalog):
        # A generous rebuild ratio so the tiny base (one snippet) is allowed
        # to grow by extension instead of tripping the rebuild threshold.
        engine = build_engine(
            sales_catalog,
            VerdictConfig(
                learn_length_scales=False,
                min_past_snippets=1,
                incremental_rebuild_ratio=10.0,
            ),
        )
        queries = [
            "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 15",
            "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 25",
            "SELECT AVG(revenue) FROM sales WHERE week >= 20 AND week <= 35",
            "SELECT AVG(revenue) FROM sales WHERE week >= 30 AND week <= 45",
        ]
        for sql in queries:
            engine.execute(sql, max_batches=1)
        [key] = engine.synopsis.keys()
        prepared = engine._prepared_for(key)
        assert prepared is not None
        assert prepared.synopsis_version == engine.synopsis.version
        # The first query found an empty synopsis; later ones extended the
        # factorisation built after it rather than rebuilding from scratch.
        assert prepared.size > prepared.base_size
        assert prepared.appended_since_base >= 1

    def test_rebuild_threshold_forces_full_factorisation(self, sales_catalog):
        engine = build_engine(
            sales_catalog,
            VerdictConfig(learn_length_scales=False, incremental_rebuild_ratio=0.25),
        )
        for low in (1, 8, 15, 22, 29, 36):
            engine.execute(
                f"SELECT AVG(revenue) FROM sales WHERE week >= {low} AND week <= {low + 10}",
                max_batches=1,
            )
        [key] = engine.synopsis.keys()
        prepared = engine._prepared_for(key)
        # With a tight threshold the factorisation must have been rebuilt at
        # least once, resetting base_size near the full size.
        assert prepared.appended_since_base <= 0.25 * prepared.base_size + 1

    def test_train_resets_base(self, sales_catalog):
        engine = build_engine(sales_catalog, VerdictConfig(learn_length_scales=False))
        for sql in TRAINING_QUERIES:
            engine.execute(sql, max_batches=1)
        engine.train()
        for key in engine.synopsis.keys():
            prepared = engine._prepared_for(key)
            assert prepared.appended_since_base == 0


class TestPosteriorReuseAcrossBatches:
    """Batches 2..k of one query reuse the GP posterior of batch 1.

    The posterior at a region depends on the past evidence only, so the
    online-aggregation batches of one query -- same regions, tighter raw
    answers -- must cost one cross/solve in total, and must still answer
    exactly what an engine that never saw the earlier batches answers.
    """

    SQL = "SELECT region, SUM(revenue) FROM sales WHERE week >= 10 AND week <= 30 GROUP BY region"

    @staticmethod
    def trained_engine(sales_catalog, extra_recorded=()):
        engine = build_engine(sales_catalog, VerdictConfig(learn_length_scales=False))
        for sql in TRAINING_QUERIES:
            engine.execute(sql, max_batches=2)
        engine.train()
        for parsed, raw in extra_recorded:
            engine.record(parsed, raw)
        return engine

    @staticmethod
    def assert_same_cells(answer, expected):
        assert len(answer.rows) == len(expected.rows) > 0
        for row, expected_row in zip(answer.rows, expected.rows):
            assert row.group_values == expected_row.group_values
            for name, cell in row.estimates.items():
                other = expected_row.estimates[name]
                assert cell.value == pytest.approx(other.value, rel=1e-12, abs=0.0)
                assert cell.error == pytest.approx(other.error, rel=1e-12, abs=0.0)
                assert cell.improved == other.improved
                assert cell.validation_reason == other.validation_reason

    def test_later_batches_skip_the_solve_and_answer_identically(
        self, sales_catalog, monkeypatch
    ):
        from repro.core import inference as inference_module

        engine = self.trained_engine(sales_catalog)
        parsed, check = engine.check(self.SQL)
        raws = list(engine.aqp.run(parsed))
        assert len(raws) >= 3

        solves = []
        real_solve = linalg.solve_lower
        monkeypatch.setattr(
            inference_module.linalg,
            "solve_lower",
            lambda cho, rhs: solves.append(np.shape(rhs)) or real_solve(cho, rhs),
        )
        solves_per_batch = []
        answers = []
        for raw in raws:
            solves.clear()
            answers.append(engine.process_answer(parsed, raw, check))
            solves_per_batch.append(len(solves))
        # SUM conditions an AVG and a FREQ model: one blocked triangular
        # solve each (gamma^2 = kappa^2 - ||L^-1 c||^2), on the first batch.
        assert solves_per_batch[0] == 2
        assert solves_per_batch[1:] == [0] * (len(raws) - 1)
        memo_sizes = {
            key: len(engine._prepared_for(key).posterior_memo)
            for key in engine.synopsis.keys()
        }
        assert all(size == len(raws[-1].rows) for size in memo_sizes.values())
        monkeypatch.undo()

        assert any(cell.improved for row in answers[-1].rows for cell in row.estimates.values())
        for raw, answer in zip(raws, answers):
            fresh = self.trained_engine(sales_catalog)
            self.assert_same_cells(answer, fresh.process_answer(parsed, raw))

    def test_record_in_between_invalidates_the_memo(self, sales_catalog):
        engine = self.trained_engine(sales_catalog)
        parsed, check = engine.check(self.SQL)
        raws = list(engine.aqp.run(parsed))
        engine.process_answer(parsed, raws[0], check)
        before = {key: engine._prepared_for(key) for key in engine.synopsis.keys()}
        assert all(prepared.posterior_memo for prepared in before.values())

        engine.record(parsed, raws[0])
        answer = engine.process_answer(parsed, raws[1], check)
        for key, stale in before.items():
            current = engine._prepared_for(key)
            assert current is not stale
            assert current.size > stale.size
            # Every remembered posterior was computed against the new evidence.
            assert len(current.posterior_memo) == len(raws[1].rows)
        fresh = self.trained_engine(sales_catalog, extra_recorded=[(parsed, raws[0])])
        self.assert_same_cells(answer, fresh.process_answer(parsed, raws[1]))
        # The recorded batch-0 answers are now evidence, so the result differs
        # from what the stale posteriors would have produced.
        stale_engine = self.trained_engine(sales_catalog)
        stale_answer = stale_engine.process_answer(parsed, raws[1])
        assert any(
            cell.value != stale_row.estimates[name].value
            for row, stale_row in zip(answer.rows, stale_answer.rows)
            for name, cell in row.estimates.items()
        )
