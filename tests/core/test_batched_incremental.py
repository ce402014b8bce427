"""Equivalence tests for the batched and incremental inference paths.

The acceptance bar for the batched/incremental refactor:

* batched group-by inference (:meth:`GaussianInference.infer_batch`) matches
  the per-cell path (:meth:`GaussianInference.infer`) within 1e-8;
* a rank-k-extended Cholesky factor matches a from-scratch ``cho_factor`` of
  the same covariance matrix after appends;
* the engine answers as a reference engine does that conditions one cell at
  a time and refactorises before every ask, and it actually extends (rather
  than rebuilds) its prepared factorisations as queries are recorded;
* an ask decomposes once: its later batches and its record reuse one
  ``AskPlan`` and answer bit for bit as batches without a plan do.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig, VerdictConfig
from repro.core import linalg
from repro.core.covariance import AggregateModel
from repro.core.engine import AskPlan, VerdictEngine
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

    def test_extended_factors_carry_the_snippet_ids(self):
        inference = GaussianInference()
        snippets = [
            s.with_identity(100 + index, index)
            for index, s in enumerate(synthetic_snippets(14, seed=12))
        ]
        prepared = inference.prepare(KEY, snippets[:8], MODEL, DOMAINS)
        extended = inference.extend(prepared, snippets[8:11])
        grown = inference.extend(extended, snippets[11:])
        assert grown.snippet_ids == tuple(s.snippet_id for s in snippets)
        assert grown.snippet_ids == tuple(range(100, 114))

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
        config = VerdictConfig(learn_length_scales=False)
        engine = build_engine(sales_catalog, config)
        # The reference conditions one cell at a time (per-cell ``infer``)
        # and drops its factorisations before every ask, so each ask
        # refactorises from scratch.
        reference = build_engine(sales_catalog, config)
        batch = reference.inference.infer_batch
        reference.inference.infer_batch = lambda prepared, cells: [
            batch(prepared, [cell])[0] for cell in cells
        ]

        def ask(target, sql, **options):
            if target is reference:
                target._prepared.clear()
            return target.execute(sql, max_batches=2, **options)

        answers = {}
        for label, target in (("batched", engine), ("legacy", reference)):
            for sql in TRAINING_QUERIES:
                ask(target, sql)
            target.train()
            answers[label] = [ask(target, sql, record=False)[-1] for sql in TEST_QUERIES]
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
                assert float(cell.value).hex() == float(other.value).hex()
                assert float(cell.error).hex() == float(other.error).hex()
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


def counting_extension(monkeypatch):
    """Count factor-matrix builds and ``L^{-1} B`` solves from here on."""
    from repro.core.covariance import SnippetCovariance

    counts = {"factor_matrix": 0, "solve_lower": 0}
    factor_matrix, solve_lower = SnippetCovariance.factor_matrix, linalg.solve_lower

    def counted_factor_matrix(self, *args, **kwargs):
        counts["factor_matrix"] += 1
        return factor_matrix(self, *args, **kwargs)

    def counted_solve_lower(*args, **kwargs):
        counts["solve_lower"] += 1
        return solve_lower(*args, **kwargs)

    monkeypatch.setattr(SnippetCovariance, "factor_matrix", counted_factor_matrix)
    monkeypatch.setattr(linalg, "solve_lower", counted_solve_lower)
    return counts


def factor_bits(prepared):
    return (
        prepared.cho[0].tobytes(),
        prepared.alpha.tobytes(),
        prepared.inverse_diagonal.tobytes(),
        float(prepared.calibration).hex(),
    )


def without_block(prepared):
    """``prepared`` as it was before any ask: no memo, no solved block."""
    return replace(prepared, posterior_memo={}, solved_block=None)


class TestRecordReusesTheAsksBlock:
    """An ask's first batch solves its cells' cross block against the
    factor; the extension that records those cells takes the block (its
    layout, ``sigma^2`` cross covariances, corner factors and ``L^{-1}``
    solve) instead of computing it again, and grows the factor in its
    buffer, to the bits the block-free extension gives."""

    ASKS = [
        "SELECT region, AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30 GROUP BY region",
        "SELECT region, AVG(revenue) FROM sales WHERE week >= 14 AND week <= 36 GROUP BY region",
    ]

    @staticmethod
    def ask_and_record(engine, sql):
        parsed, check = engine.check(sql)
        plan = AskPlan(parsed)
        raws = list(engine.aqp.run(parsed))
        for raw in raws:
            engine.process_answer(parsed, raw, check, plan=plan)
        assert engine.record(parsed, raws[-1], plan=plan) > 0

    def test_the_record_after_an_ask_extends_with_the_asks_block(
        self, sales_catalog, monkeypatch
    ):
        engine = build_engine(
            sales_catalog,
            VerdictConfig(learn_length_scales=False, incremental_rebuild_ratio=10.0),
        )
        for sql in TRAINING_QUERIES:
            engine.execute(sql, max_batches=2)
        engine.train()
        # The second ask extends the trained factor by the first one's
        # record; the extension below grows that extension's factor, whose
        # solve the block can carry, in its buffer.
        for sql in self.ASKS:
            self.ask_and_record(engine, sql)
        key = next(k for k in engine.synopsis.keys() if k.kind is AggregateKind.AVG)
        stale = engine._prepared[key]
        assert stale.appended_since_base > 0 and stale.solved_block is not None
        appended = engine.synopsis.changes_since(stale.synopsis_version).appended[key]
        assert tuple(s.region for s in appended) == stale.solved_block.regions

        counts = counting_extension(monkeypatch)
        current = engine._prepared_for(key)
        assert counts == {"factor_matrix": 0, "solve_lower": 0}
        assert current.size == stale.size + len(appended)
        assert current.cho.buffer is stale.cho.buffer

        recomputed = engine.inference.extend(
            without_block(stale), appended, synopsis_version=current.synopsis_version
        )
        assert counts == {"factor_matrix": 1, "solve_lower": 1}
        assert recomputed.cho.buffer is not stale.cho.buffer
        assert factor_bits(current) == factor_bits(recomputed)
        assert current.snippet_ids == recomputed.snippet_ids

    def test_a_first_extension_takes_the_cross_block_but_solves_again(self, monkeypatch):
        """A ``cho_factor`` factor's extension solves on its zeroed copy,
        whose bits can differ from the ask's solve on the factor itself."""
        inference = GaussianInference(VerdictConfig())
        prepared = inference.prepare(KEY, synthetic_snippets(40, seed=25), MODEL, DOMAINS)
        cells = synthetic_snippets(6, seed=26)
        inference.posteriors(prepared, [s.region for s in cells])
        counts = counting_extension(monkeypatch)
        extended = inference.extend(prepared, cells)
        assert counts == {"factor_matrix": 0, "solve_lower": 1}
        recomputed = inference.extend(without_block(prepared), cells)
        assert factor_bits(extended) == factor_bits(recomputed)

    @pytest.mark.parametrize("case", ["same", "changed_group_rows", "duplicate_regions"])
    def test_reused_and_recomputed_blocks_give_the_same_bits(self, case, monkeypatch):
        inference = GaussianInference(VerdictConfig())
        prepared = inference.prepare(KEY, synthetic_snippets(40, seed=21), MODEL, DOMAINS)
        first = inference.extend(prepared, synthetic_snippets(6, seed=22))
        cells = synthetic_snippets(6, seed=23)
        if case == "duplicate_regions":
            # Two cells of one ask share a region: the block holds it once.
            cells = cells[:1] + cells[:4]
        inference.posteriors(first, [s.region for s in cells])
        if case == "changed_group_rows":
            # A later batch's group rows differ: the block holds the new
            # regions alone, but the record appends every cell it answered.
            cells = cells[:3] + synthetic_snippets(2, seed=24)
            inference.posteriors(first, [s.region for s in cells])
            assert len(first.solved_block.regions) == 2
        elif case == "duplicate_regions":
            assert len(first.solved_block.regions) == 4

        counts = counting_extension(monkeypatch)
        reused = inference.extend(first, cells)
        expected = (0, 0) if case == "same" else (1, 1)
        assert (counts["factor_matrix"], counts["solve_lower"]) == expected
        assert reused.cho.buffer is first.cho.buffer
        recomputed = inference.extend(without_block(first), cells)
        assert factor_bits(reused) == factor_bits(recomputed)


def stored(engine):
    """The synopsis contents, key by key, with identities."""
    return [
        (s.key, s.region, s.raw_answer, s.raw_error, s.snippet_id)
        for key in engine.synopsis.keys()
        for s in engine.synopsis.snippets_for(key)
    ]


def cell_bits(answer):
    """Every cell of an answer as exact bits: value, error, improved, reason."""
    return [
        (
            row.group_values,
            name,
            float(cell.value).hex(),
            float(cell.error).hex(),
            cell.improved,
            cell.validation_reason,
        )
        for row in answer.rows
        for name, cell in row.estimates.items()
    ]


class TestAskPlan:
    """One ask decomposes once; its batches and its record reuse the plan."""

    GROUPED = (
        "SELECT region, AVG(revenue), SUM(revenue), COUNT(*), FREQ(*) FROM sales "
        "WHERE week >= 5 AND week <= 25 GROUP BY region"
    )
    # The HAVING filter keeps a different set of groups as the batches come in.
    SHIFTING = (
        "SELECT region, COUNT(*), SUM(revenue) FROM sales WHERE week >= 2 AND week <= 20 "
        "GROUP BY region HAVING count_star > 200"
    )
    SCALAR = "SELECT SUM(revenue), AVG(price) FROM sales WHERE week >= 10 AND week <= 30"

    @staticmethod
    def trained(sales_catalog, config=None):
        engine = build_engine(sales_catalog, config or VerdictConfig(learn_length_scales=False))
        for sql in TRAINING_QUERIES:
            engine.execute(sql, max_batches=2)
        engine.train()
        return engine

    @staticmethod
    def counting(monkeypatch):
        """Count ``decompose_query`` and ``RegionBuilder.build`` calls."""
        from repro.core import engine as engine_module

        counts = {"decompose": 0, "build": 0}
        decompose, build = engine_module.decompose_query, engine_module.RegionBuilder.build

        def counted_decompose(*args, **kwargs):
            counts["decompose"] += 1
            return decompose(*args, **kwargs)

        def counted_build(self, predicate):
            counts["build"] += 1
            return build(self, predicate)

        monkeypatch.setattr(engine_module, "decompose_query", counted_decompose)
        monkeypatch.setattr(engine_module.RegionBuilder, "build", counted_build)
        return counts

    def test_one_decomposition_per_ask_and_none_for_its_record(
        self, sales_catalog, monkeypatch
    ):
        engine = self.trained(sales_catalog)
        parsed, check = engine.check(self.GROUPED)
        raws = list(engine.aqp.run(parsed))
        assert len(raws) >= 3
        counts = self.counting(monkeypatch)
        plan = AskPlan(parsed)
        for raw in raws:
            engine.process_answer(parsed, raw, check, plan=plan)
        rows = len(raws[-1].rows)
        assert counts == {"decompose": 1, "build": 4 * rows}
        # AVG, COUNT and FREQ record one snippet per row, SUM two.
        assert engine.record(parsed, raws[-1], plan=plan) == 5 * rows
        assert counts == {"decompose": 1, "build": 4 * rows}

    def test_changed_group_rows_rebuild_exactly_once(self, sales_catalog, monkeypatch):
        from dataclasses import replace

        engine = self.trained(sales_catalog)
        parsed, check = engine.check(self.GROUPED)
        raws = list(engine.aqp.run(parsed))
        fewer = replace(raws[1], rows=raws[1].rows[:-1])
        counts = self.counting(monkeypatch)
        plan = AskPlan(parsed)
        for raw in (raws[0], raws[1], fewer, fewer):
            engine.process_answer(parsed, raw, check, plan=plan)
        assert counts["decompose"] == 2
        assert counts["build"] == 4 * (len(raws[1].rows) + len(fewer.rows))
        # A new domains object (an append replaces it) rebuilds too.
        engine.invalidate_domains("sales")
        engine.process_answer(parsed, fewer, check, plan=plan)
        assert counts["decompose"] == 3

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"enable_model_validation": False},
            {"conservative_validation": False},
        ],
    )
    @pytest.mark.parametrize("sql", [GROUPED, SHIFTING, SCALAR])
    def test_planned_batches_equal_the_unplanned_bit_for_bit(
        self, sales_catalog, sql, options
    ):
        config = VerdictConfig(learn_length_scales=False, **options)
        planned = self.trained(sales_catalog, config)
        unplanned = self.trained(sales_catalog, config)
        parsed, check = planned.check(sql)
        raws = list(planned.aqp.run(parsed))
        if sql == self.SHIFTING:
            assert len({tuple(raw.group_rows()) for raw in raws}) > 1
        plan = AskPlan(parsed)
        for raw in raws:
            assert cell_bits(planned.process_answer(parsed, raw, check, plan=plan)) == cell_bits(
                unplanned.process_answer(parsed, raw, check)
            )
        assert planned.record(parsed, raws[-1], plan=plan) == unplanned.record(parsed, raws[-1])
        assert stored(planned) == stored(unplanned)
        for sql_after in TEST_QUERIES:
            after = planned.check(sql_after)[0]
            raw = next(iter(planned.aqp.run(after)))
            assert cell_bits(planned.process_answer(after, raw)) == cell_bits(
                unplanned.process_answer(after, raw)
            )

    @pytest.mark.parametrize("mutation", ["record", "train", "set_model"])
    def test_mutation_mid_ask_answers_like_a_fresh_engine(self, sales_catalog, mutation):
        """A plan holds no factor: after a record, a training round or a
        model override between two batches, the next batch equals what a
        fresh engine holding the new evidence answers."""
        recorded_sql = (
            "SELECT region, AVG(revenue) FROM sales WHERE week >= 12 AND week <= 40 "
            "GROUP BY region"
        )

        def mutate(engine):
            if mutation == "set_model":
                key = SnippetKey(kind=AggregateKind.AVG, table="sales", attribute="revenue")
                engine.set_model(key, AggregateModel(key=key, length_scales={"week": 4.0}))
                return
            recorded = engine.check(recorded_sql)[0]
            engine.record(recorded, engine.aqp.final_answer(recorded))
            if mutation == "train":
                engine.train()

        engine = self.trained(sales_catalog)
        parsed, check = engine.check(self.GROUPED)
        raws = list(engine.aqp.run(parsed))
        plan = AskPlan(parsed)
        before = engine.process_answer(parsed, raws[0], check, plan=plan)
        mutate(engine)
        answer = engine.process_answer(parsed, raws[1], check, plan=plan)

        fresh = self.trained(sales_catalog)
        mutate(fresh)
        assert cell_bits(answer) == cell_bits(fresh.process_answer(parsed, raws[1]))
        stale = self.trained(sales_catalog).process_answer(parsed, raws[1])
        assert cell_bits(answer) != cell_bits(stale)
        assert cell_bits(before) != cell_bits(answer)
