"""Ablation: O(n^2) block-form inference (Eq. 11/12) vs O(n^3) direct
conditioning (Eq. 4/5), and the analytic kernel integral vs numeric
quadrature.

These back a design choice listed under "Deviations from the paper" in
docs/ARCHITECTURE.md: the block form is the one Verdict uses at query time;
the direct form is the reference.  The two produce the same answers; the
block form with a prepared factorisation is much faster per query.
"""

from __future__ import annotations

import math

import pytest
from scipy import integrate

from benchmarks.common import emit
from repro.config import VerdictConfig
from repro.core.covariance import AggregateModel
from repro.core.inference import GaussianInference
from repro.core.kernel import se_double_integral
from repro.workloads.synthetic import make_gp_snippets


@pytest.fixture(scope="module")
def inference_setup():
    snippets, domains, key = make_gp_snippets(num_snippets=120, true_length_scale=1.5, seed=9)
    past, new = snippets[:-1], snippets[-1]
    model = AggregateModel(key=key, length_scales={"x": 1.5})
    inference = GaussianInference(VerdictConfig(calibrate_model_variance=False))
    prepared = inference.prepare(key, past, model, domains)
    return inference, prepared, past, new, model, domains, key


def test_block_form_query_time(benchmark, inference_setup):
    inference, prepared, _, new, _, _, _ = inference_setup
    result = benchmark(inference.infer, prepared, new)
    assert result.model_error <= new.raw_error + 1e-12


def test_direct_conditioning_query_time(benchmark, inference_setup):
    inference, prepared, past, new, model, domains, key = inference_setup
    direct = benchmark(inference.infer_direct, key, past, new, model, domains)
    block = inference.infer(prepared, new)
    assert direct.model_answer == pytest.approx(block.model_answer, rel=1e-3, abs=1e-6)
    emit(
        "ablation_inference",
        "Block form (Eq. 11/12) and direct conditioning (Eq. 4/5) agree; see the\n"
        "pytest-benchmark table for the per-query latency gap.",
    )


def test_analytic_kernel_vs_quadrature(benchmark):
    def quadrature():
        return integrate.dblquad(
            lambda y, x: math.exp(-((x - y) ** 2) / 1.7**2), 0.0, 2.0, lambda x: 1.0, lambda x: 4.0
        )[0]

    numeric = quadrature()
    analytic = float(se_double_integral(0.0, 2.0, 1.0, 4.0, 1.7))
    assert analytic == pytest.approx(numeric, rel=1e-6)
    benchmark(se_double_integral, 0.0, 2.0, 1.0, 4.0, 1.7)
