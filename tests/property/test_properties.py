"""Property-based tests (hypothesis) for the core invariants.

These exercise the paper's formal claims over randomised inputs:

* Theorem 1: the improved error never exceeds the raw error;
* the block-form inference (Eq. 11/12) equals direct conditioning (Eq. 4/5);
* covariance factor matrices are symmetric positive semi-definite with
  factors in [0, 1] and correlations bounded by one;
* the analytic kernel double integral matches numeric quadrature;
* the CLT estimators and error metrics behave sanely for arbitrary inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp.estimators import avg_estimate, count_estimate, freq_estimate, sum_estimate
from repro.core.covariance import AggregateModel, SnippetCovariance
from repro.core.inference import GaussianInference
from repro.core.kernel import se_average_factor, se_double_integral
from repro.core.regions import (
    AttributeDomains,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.experiments.metrics import error_reduction, percentile, relative_error

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
DOMAINS = AttributeDomains(numeric={"x": NumericDomain("x", 0.0, 10.0, 0.01)})


ranges = st.tuples(
    st.floats(min_value=0.0, max_value=9.0),
    st.floats(min_value=0.05, max_value=3.0),
).map(lambda pair: (pair[0], min(pair[0] + pair[1], 10.0)))

length_scales = st.floats(min_value=0.05, max_value=30.0)


def make_snippet(bounds: tuple[float, float], answer: float, error: float) -> Snippet:
    region = Region(numeric_ranges=(NumericRange("x", bounds[0], bounds[1]),))
    return Snippet(key=KEY, region=region, raw_answer=answer, raw_error=error)


snippet_lists = st.lists(
    st.tuples(
        ranges,
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=5.0),
    ),
    min_size=1,
    max_size=8,
).map(lambda items: [make_snippet(*item) for item in items])


class TestKernelProperties:
    @given(
        a=st.floats(min_value=-5, max_value=5),
        width_1=st.floats(min_value=0.01, max_value=4),
        c=st.floats(min_value=-5, max_value=5),
        width_2=st.floats(min_value=0.01, max_value=4),
        scale=length_scales,
    )
    @settings(max_examples=60, deadline=None)
    def test_double_integral_bounds(self, a, width_1, c, width_2, scale):
        value = float(se_double_integral(a, a + width_1, c, c + width_2, scale))
        assert value >= 0.0
        # The integrand is at most one, so the integral is at most the area.
        assert value <= width_1 * width_2 + 1e-9

    @given(
        a=st.floats(min_value=-5, max_value=5),
        width_1=st.floats(min_value=0.01, max_value=4),
        c=st.floats(min_value=-5, max_value=5),
        width_2=st.floats(min_value=0.01, max_value=4),
        scale=length_scales,
    )
    @settings(max_examples=60, deadline=None)
    def test_average_factor_in_unit_interval_and_symmetric(self, a, width_1, c, width_2, scale):
        forward = float(se_average_factor(a, a + width_1, c, c + width_2, scale))
        backward = float(se_average_factor(c, c + width_2, a, a + width_1, scale))
        assert 0.0 <= forward <= 1.0 + 1e-12
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-12)


class TestCovarianceProperties:
    @given(snippets=snippet_lists, scale=length_scales)
    @settings(max_examples=40, deadline=None)
    def test_factor_matrix_symmetric_psd_and_bounded(self, snippets, scale):
        covariance = SnippetCovariance(
            DOMAINS, AggregateModel(key=KEY, length_scales={"x": scale})
        )
        matrix = covariance.factor_matrix(snippets)
        assert np.all(matrix >= -1e-12)
        assert np.all(matrix <= 1.0 + 1e-9)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() >= -1e-7
        # Implied correlations are bounded by one.
        diagonal = np.sqrt(np.outer(np.diag(matrix), np.diag(matrix)))
        with np.errstate(invalid="ignore", divide="ignore"):
            correlations = np.where(diagonal > 0, matrix / diagonal, 0.0)
        assert np.nanmax(correlations) <= 1.0 + 1e-6


class TestInferenceProperties:
    @given(
        snippets=snippet_lists,
        scale=length_scales,
        new_range=ranges,
        new_answer=st.floats(min_value=-100.0, max_value=100.0),
        new_error=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_theorem1_improved_error_never_larger(
        self, snippets, scale, new_range, new_answer, new_error
    ):
        inference = GaussianInference()
        model = AggregateModel(key=KEY, length_scales={"x": scale})
        prepared = inference.prepare(KEY, snippets, model, DOMAINS)
        new = make_snippet(new_range, new_answer, new_error)
        result = inference.infer(prepared, new)
        assert result.model_error <= new_error + 1e-9
        assert math.isfinite(result.model_answer)

    @given(
        snippets=snippet_lists,
        new_range=ranges,
        new_answer=st.floats(min_value=-50.0, max_value=50.0),
        new_error=st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_form_equals_direct_conditioning(
        self, snippets, new_range, new_answer, new_error
    ):
        from repro.config import VerdictConfig

        inference = GaussianInference(VerdictConfig(calibrate_model_variance=False))
        model = AggregateModel(key=KEY, length_scales={"x": 2.0})
        new = make_snippet(new_range, new_answer, new_error)
        prepared = inference.prepare(KEY, snippets, model, DOMAINS)
        block = inference.infer(prepared, new)
        direct = inference.infer_direct(KEY, snippets, new, model, DOMAINS)
        # The two computations are algebraically identical; tolerances are
        # loose enough to absorb numerical conditioning when hypothesis
        # generates (near-)duplicate regions.
        assert block.model_answer == pytest.approx(direct.model_answer, rel=1e-2, abs=1e-5)
        assert block.model_error == pytest.approx(direct.model_error, rel=1e-2, abs=1e-5)


class TestEstimatorProperties:
    @given(
        selected=st.integers(min_value=0, max_value=1_000),
        extra=st.integers(min_value=0, max_value=1_000),
        population=st.integers(min_value=1, max_value=10_000_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_freq_and_count_sane(self, selected, extra, population):
        scanned = selected + extra
        freq = freq_estimate(selected, scanned)
        assert 0.0 <= freq.value <= 1.0
        assert freq.error >= 0.0
        count = count_estimate(selected, scanned, population)
        assert 0.0 <= count.value <= population
        assert count.error >= 0.0

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=50
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_avg_and_sum_finite(self, values):
        array = np.asarray(values, dtype=np.float64)
        avg = avg_estimate([array], fallback_std=1.0)
        assert math.isfinite(avg.value[0]) and avg.error[0] >= 0.0
        count = count_estimate(np.array([len(values)]), max(len(values), 1), 1_000)
        total = sum_estimate(avg, count)
        assert math.isfinite(total.value[0]) and total.error[0] >= 0.0


class TestMetricProperties:
    @given(
        estimate=st.floats(min_value=-1e9, max_value=1e9),
        truth=st.floats(min_value=-1e9, max_value=1e9),
    )
    @settings(max_examples=80, deadline=None)
    def test_relative_error_non_negative(self, estimate, truth):
        assert relative_error(estimate, truth) >= 0.0

    @given(
        baseline=st.floats(min_value=1e-6, max_value=1e3),
        improvement=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_error_reduction_bounded_by_100(self, baseline, improvement):
        improved = baseline * improvement
        reduction = error_reduction(baseline, improved)
        assert -1e-9 <= reduction <= 100.0 + 1e-9

    @given(
        values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_percentile_within_range(self, values, fraction):
        result = percentile(values, fraction)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9
