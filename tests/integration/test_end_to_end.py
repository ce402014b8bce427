"""Integration tests: full pipelines over the workload generators."""

import numpy as np
import pytest

from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.experiments.metrics import bound_violation_rate, error_reduction
from repro.experiments.runner import ExperimentRunner, error_bound_at_time, time_to_reach_bound
from repro.workloads.customer1 import Customer1Workload
from repro.workloads.ngram import figure1_query_ranges, make_ngram_catalog, ngram_range_query
from repro.workloads.tpch import TPCHWorkload


@pytest.fixture(scope="module")
def customer1_runner():
    workload = Customer1Workload(num_rows=20_000, num_days=200, seed=21)
    catalog = workload.build_catalog()
    sample_rows = int(20_000 * 0.2)
    runner = ExperimentRunner(
        catalog,
        sampling=SamplingConfig(sample_ratio=0.2, num_batches=5, seed=1),
        # Scale the cost model so a full sample scan takes seconds (Table 5
        # scale); otherwise planning overhead dominates and speedups vanish.
        cost_model=CostModelConfig.scaled_for(sample_rows, cached=True),
        config=VerdictConfig(learn_length_scales=False),
    )
    trace = workload.generate_trace(num_queries=60, seed=3)
    half = len(trace) // 2
    runner.train_on([q.sql for q in trace[:half]])
    return runner, [q.sql for q in trace[half:]]


class TestCustomer1Pipeline:
    def test_speedup_and_error_reduction(self, customer1_runner):
        runner, test_queries = customer1_runner
        results = runner.evaluate(test_queries[:12])
        supported = [r for r in results if r.supported]
        assert supported, "trace should contain supported test queries"

        # Error reduction at a fixed time budget (Table 4 bottom half).
        budget = np.median([r.baseline[-1].elapsed_seconds for r in supported]) / 2
        base_bounds = [error_bound_at_time(r.baseline, budget) for r in supported]
        verdict_bounds = [error_bound_at_time(r.verdict, budget) for r in supported]
        reduction = error_reduction(float(np.mean(base_bounds)), float(np.mean(verdict_bounds)))
        assert reduction > 10.0  # Verdict must clearly reduce the error

        # Speedup to a per-query target bound halfway between what NoLearn
        # achieves after its first batch and after its full sample scan
        # (Table 4 top half): NoLearn needs extra batches, Verdict usually
        # reaches the target immediately.
        base_times, verdict_times = [], []
        for result in supported:
            target = 0.5 * (
                result.baseline[0].relative_error_bound
                + result.baseline[-1].relative_error_bound
            )
            base_times.append(time_to_reach_bound(result.baseline, target))
            verdict_times.append(time_to_reach_bound(result.verdict, target))
        overall_speedup = float(np.mean(base_times)) / float(np.mean(verdict_times))
        assert overall_speedup > 1.1

    def test_theorem1_holds_across_trace(self, customer1_runner):
        runner, test_queries = customer1_runner
        results = runner.evaluate(test_queries[12:22])
        for result in results:
            for base, improved in zip(result.baseline, result.verdict):
                assert improved.relative_error_bound <= base.relative_error_bound + 1e-9

    def test_bound_behaviour_and_accuracy(self, customer1_runner):
        """Figure 5 flavour, at reproduction scale.

        The reproduction does not reach the paper's 95% coverage: every ask
        reads the same offline sample, so the raw errors of overlapping
        snippets are correlated, while the model treats them as independent
        (see "Deviations from the paper" in docs/ARCHITECTURE.md).  The test
        asserts the two properties that must still hold: the bound-violation
        rate stays bounded well below half, and Verdict's answers after the
        first batch are more accurate than NoLearn's on average.
        """
        runner, test_queries = customer1_runner
        results = runner.evaluate(test_queries[22:30])
        pairs = [pair for result in results for pair in result.verdict_cells]
        assert pairs
        assert bound_violation_rate(pairs) <= 0.40
        supported = [r for r in results if r.supported]
        verdict_first = np.mean([r.verdict[0].actual_relative_error for r in supported])
        baseline_first = np.mean([r.baseline[0].actual_relative_error for r in supported])
        assert verdict_first <= baseline_first + 0.01

    def test_overhead_is_small_fraction_of_runtime(self, customer1_runner):
        runner, test_queries = customer1_runner
        result = runner.evaluate_query(test_queries[0])
        if result.supported:
            total = result.baseline[-1].elapsed_seconds
            assert result.overhead_seconds < 0.25 * total + 0.05


class TestTPCHPipeline:
    @pytest.fixture(scope="class")
    def tpch_runner(self):
        workload = TPCHWorkload(scale=0.15, seed=5)
        catalog = workload.build_catalog()
        runner = ExperimentRunner(
            catalog,
            sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2),
            cost_model=CostModelConfig(cached=True),
            config=VerdictConfig(learn_length_scales=False),
        )
        return runner, workload

    def test_supported_templates_run_through_verdict(self, tpch_runner):
        runner, workload = tpch_runner
        queries = [q.sql for q in workload.supported_queries(num_queries=14, seed=1)]
        runner.train_on(queries)
        results = runner.evaluate(queries[:6], max_batches=2)
        assert all(result.supported for result in results)
        for result in results:
            for base, improved in zip(result.baseline, result.verdict):
                assert improved.relative_error_bound <= base.relative_error_bound + 1e-9

    def test_unsupported_templates_pass_through(self, tpch_runner):
        runner, workload = tpch_runner
        unsupported = [q for q in workload.query_templates() if not q.expected_supported]
        # MIN/MAX query passes through without improvement and without errors.
        target = next(q for q in unsupported if "MIN(" in q.sql or "MAX(" in q.sql)
        result = runner.evaluate_query(target.sql, max_batches=1)
        assert not result.supported


class TestNgramIllustration:
    def test_model_refines_with_more_queries(self):
        """Figure 1 / Figure 8: the posterior over an unseen range tightens as
        more range queries are answered."""
        catalog = make_ngram_catalog(num_weeks=80, rows_per_week=80, seed=9)
        runner = ExperimentRunner(
            catalog,
            sampling=SamplingConfig(sample_ratio=0.3, num_batches=3, seed=4),
            config=VerdictConfig(learn_length_scales=False),
        )
        probe = ngram_range_query(33, 47)
        ranges = figure1_query_ranges(8, num_weeks=80, seed=10)

        def probe_bound() -> float:
            result = runner.evaluate_query(probe, record=False, max_batches=1)
            return result.verdict[0].relative_error_bound

        bound_before = probe_bound()
        runner.train_on([ngram_range_query(low, high) for low, high in ranges[:2]])
        bound_after_two = probe_bound()
        runner.train_on([ngram_range_query(low, high) for low, high in ranges[2:]])
        bound_after_eight = probe_bound()
        assert bound_after_two <= bound_before + 1e-9
        assert bound_after_eight <= bound_after_two + 1e-9
