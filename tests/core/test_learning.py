"""Unit tests for correlation-parameter learning (Appendix A)."""


import numpy as np
import pytest
from scipy.optimize import minimize

import repro.core.learning as learning_module
from repro.config import VerdictConfig
from repro.core.learning import (
    LikelihoodWorkspace,
    constrained_numeric_attributes,
    learn_length_scales,
    negative_log_likelihood,
)
from repro.workloads.synthetic import make_gp_snippets, make_gp_snippets_multi


class TestLikelihood:
    def test_true_scale_beats_badly_wrong_scale(self):
        snippets, domains, key = make_gp_snippets(
            num_snippets=60, true_length_scale=1.5, seed=3
        )
        nll_true = negative_log_likelihood({"x": 1.5}, key, snippets, domains)
        nll_tiny = negative_log_likelihood({"x": 0.01}, key, snippets, domains)
        assert nll_true < nll_tiny

    def test_too_few_snippets_returns_zero(self):
        snippets, domains, key = make_gp_snippets(num_snippets=1, true_length_scale=1.0, seed=0)
        assert negative_log_likelihood({"x": 1.0}, key, snippets, domains) == 0.0

    def test_constrained_attributes_detected(self):
        snippets, domains, key = make_gp_snippets(num_snippets=5, true_length_scale=1.0, seed=1)
        assert constrained_numeric_attributes(snippets, domains) == ["x"]


class TestLearnLengthScales:
    def test_recovers_roughly_true_scale(self):
        """Figure 7: the estimate should be of the right order of magnitude."""
        true_scale = 2.0
        snippets, domains, key = make_gp_snippets(
            num_snippets=80, true_length_scale=true_scale, seed=7
        )
        learned = learn_length_scales(
            key, snippets, domains, VerdictConfig(learning_restarts=2, max_learning_snippets=80)
        )
        estimate = learned.length_scales["x"]
        assert 0.3 * true_scale < estimate < 3.5 * true_scale
        assert learned.optimized_attributes == ("x",)
        assert learned.sigma2 > 0

    def test_more_snippets_do_not_hurt(self):
        """The likelihood at the learned scale should beat the default scale."""
        snippets, domains, key = make_gp_snippets(
            num_snippets=60, true_length_scale=1.0, seed=9
        )
        learned = learn_length_scales(
            key, snippets, domains, VerdictConfig(learning_restarts=1, max_learning_snippets=60)
        )
        default_scales = domains.default_length_scales()
        nll_default = negative_log_likelihood(default_scales, key, snippets, domains)
        nll_learned = negative_log_likelihood(learned.length_scales, key, snippets, domains)
        assert nll_learned <= nll_default + 1e-6

    def test_learning_disabled_returns_defaults(self):
        snippets, domains, key = make_gp_snippets(num_snippets=30, true_length_scale=1.0, seed=2)
        config = VerdictConfig(learn_length_scales=False)
        learned = learn_length_scales(key, snippets, domains, config)
        assert learned.length_scales == domains.default_length_scales()
        assert learned.optimized_attributes == ()
        assert not learned.converged

    def test_too_few_snippets_returns_defaults(self):
        snippets, domains, key = make_gp_snippets(num_snippets=2, true_length_scale=1.0, seed=4)
        learned = learn_length_scales(key, snippets, domains, VerdictConfig())
        assert learned.length_scales == domains.default_length_scales()

    def test_as_model(self):
        snippets, domains, key = make_gp_snippets(num_snippets=10, true_length_scale=1.0, seed=5)
        learned = learn_length_scales(key, snippets, domains, VerdictConfig(learn_length_scales=False))
        model = learned.as_model()
        assert model.key == key
        assert model.length_scales == learned.length_scales


class TestFastPath:
    """The LikelihoodWorkspace objective and the analytic-gradient optimiser."""

    def test_workspace_nll_matches_reference_on_fig7_snippets(self):
        snippets, domains, key = make_gp_snippets(
            num_snippets=60, true_length_scale=1.5, seed=7
        )
        workspace = LikelihoodWorkspace(key, snippets, domains)
        for theta in np.log([0.2, 1.0, 1.5, 5.0]):
            scale = float(np.exp(theta))
            reference = negative_log_likelihood({"x": scale}, key, snippets, domains)
            assert abs(workspace.nll([theta]) - reference) <= 1e-12 * max(
                1.0, abs(reference)
            )

    def test_fast_and_legacy_paths_learn_the_same_scales(self):
        snippets, domains, key = make_gp_snippets_multi(
            60,
            {"x0": 2.0, "x1": 1.0},
            categorical_sizes={"region": 6},
            seed=13,
            noise_std=0.15,
        )
        config = VerdictConfig(learning_restarts=2, max_learning_snippets=60)
        fast = learn_length_scales(key, snippets, domains, config)
        # Oracle: L-BFGS-B with finite differences on the reference NLL,
        # from the same starts (domain widths, then seed-0 random restarts).
        names = constrained_numeric_attributes(snippets, domains)
        defaults = domains.default_length_scales()
        widths = np.array([defaults[name] for name in names])

        def objective(log_scales):
            scales = dict(defaults, **dict(zip(names, np.exp(log_scales))))
            return negative_log_likelihood(scales, key, snippets, domains)

        rng = np.random.default_rng(0)
        starts = [np.log(widths), np.log(widths) + rng.uniform(-2.0, 1.0, len(widths))]
        bounds = list(zip(np.log(widths * 1e-3), np.log(widths * 10.0)))
        outcomes = [
            minimize(objective, start, method="L-BFGS-B", bounds=bounds, options={"maxiter": 60})
            for start in starts
        ]
        best = min(outcomes, key=lambda outcome: outcome.fun)
        assert fast.optimized_attributes == tuple(names)
        for name, log_scale in zip(names, best.x):
            assert fast.length_scales[name] == pytest.approx(np.exp(log_scale), rel=0.01)

    def test_workspace_handles_fewer_than_two_snippets(self):
        snippets, domains, key = make_gp_snippets(
            num_snippets=1, true_length_scale=1.0, seed=0
        )
        workspace = LikelihoodWorkspace(key, snippets, domains)
        value, gradient = workspace.nll_and_grad([0.0])
        assert value == 0.0
        assert np.all(gradient == 0.0)

    def test_warm_start_converges_to_the_same_optimum(self):
        snippets, domains, key = make_gp_snippets(
            num_snippets=60, true_length_scale=1.5, seed=9
        )
        config = VerdictConfig(learning_restarts=2, max_learning_snippets=60)
        cold = learn_length_scales(key, snippets, domains, config)
        warm = learn_length_scales(
            key, snippets, domains, config, warm_start=cold.length_scales
        )
        assert warm.length_scales["x"] == pytest.approx(
            cold.length_scales["x"], rel=1e-3
        )
        assert warm.log_likelihood >= cold.log_likelihood - 1e-9

    def test_warm_start_outside_bounds_is_clipped(self):
        snippets, domains, key = make_gp_snippets(
            num_snippets=30, true_length_scale=1.0, seed=4
        )
        config = VerdictConfig(learning_restarts=1, max_learning_snippets=30)
        learned = learn_length_scales(
            key, snippets, domains, config, warm_start={"x": 1e9}
        )
        width = domains.numeric["x"].width
        assert 0 < learned.length_scales["x"] <= 10.0 * width * (1 + 1e-9)


class TestLazyLogLikelihood:
    def test_no_learn_path_defers_the_likelihood_factorisation(self, monkeypatch):
        snippets, domains, key = make_gp_snippets(
            num_snippets=30, true_length_scale=1.0, seed=2
        )
        calls = {"count": 0}
        reference = learning_module.negative_log_likelihood

        def counting(*args, **kwargs):
            calls["count"] += 1
            return reference(*args, **kwargs)

        monkeypatch.setattr(learning_module, "negative_log_likelihood", counting)
        learned = learn_length_scales(
            key, snippets, domains, VerdictConfig(learn_length_scales=False)
        )
        assert calls["count"] == 0  # nothing paid up front
        first = learned.log_likelihood
        assert calls["count"] == 1
        assert first == learned.log_likelihood  # cached, not recomputed
        assert calls["count"] == 1
        expected = -reference(domains.default_length_scales(), key, snippets, domains)
        assert first == expected
