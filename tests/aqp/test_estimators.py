"""Unit tests for the CLT estimators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.aqp.estimators import (
    Estimate,
    avg_estimate,
    confidence_multiplier,
    count_estimate,
    freq_estimate,
    sum_estimate,
)


class TestFreqAndCount:
    def test_freq_point_estimate(self):
        estimate = freq_estimate(25, 100)
        assert estimate.value == pytest.approx(0.25)
        assert estimate.error == pytest.approx(math.sqrt(0.25 * 0.75 / 100))

    def test_freq_zero_selected_has_positive_error(self):
        estimate = freq_estimate(0, 100)
        assert estimate.value == 0.0
        assert estimate.error > 0.0

    def test_freq_no_rows_scanned(self):
        estimate = freq_estimate(0, 0)
        assert estimate.value == 0.0
        assert estimate.error == 1.0

    def test_freq_error_shrinks_with_sample_size(self):
        small = freq_estimate(10, 40)
        large = freq_estimate(1000, 4000)
        assert large.error < small.error

    def test_count_scales_freq(self):
        freq = freq_estimate(30, 100)
        count = count_estimate(30, 100, population_size=10_000)
        assert count.value == pytest.approx(freq.value * 10_000)
        assert count.error == pytest.approx(freq.error * 10_000)


class TestAvgAndSum:
    def test_avg_matches_sample_mean_and_se(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        estimate = avg_estimate([values])
        assert estimate.value[0] == pytest.approx(3.0)
        assert estimate.error[0] == pytest.approx(values.std(ddof=1) / math.sqrt(5))

    def test_avg_empty_uses_fallback(self):
        estimate = avg_estimate([np.array([])], fallback_std=2.5)
        assert estimate.value[0] == 0.0
        assert estimate.error[0] == pytest.approx(2.5)

    def test_avg_single_value_uses_fallback(self):
        estimate = avg_estimate([np.array([7.0])], fallback_std=1.5)
        assert estimate.value[0] == 7.0
        assert estimate.error[0] == pytest.approx(1.5)

    def test_sum_propagates_errors(self):
        avg = avg_estimate([np.array([10.0, 12.0, 8.0, 11.0])])
        count = count_estimate(np.array([4]), 10, 1000)
        total = sum_estimate(avg, count)
        assert total.value[0] == pytest.approx(avg.value[0] * count.value[0])
        expected = math.sqrt(
            (count.value[0] * avg.error[0]) ** 2 + (avg.value[0] * count.error[0]) ** 2
        )
        assert total.error[0] == pytest.approx(expected)

    def test_sum_error_squares_like_python(self):
        # For these two terms x * x and the C pow behind Python's x ** 2 round
        # differently, and the difference survives the square root.
        a, b = 1.8871580461934296, -1.1609821331584274
        avg = Estimate(value=np.array([a]), error=np.array([b]))
        count = Estimate(value=np.array([1.0]), error=np.array([1.0]))
        (error,) = sum_estimate(avg, count).error.tolist()
        assert error == math.sqrt(b**2 + a**2)

    def test_avg_is_consistent(self, rng):
        """The standard error should be a valid 1-sigma error in practice."""
        population = rng.normal(50.0, 10.0, size=50_000)
        truth = population.mean()
        misses = 0
        trials = 200
        for _ in range(trials):
            sample = rng.choice(population, size=400, replace=False)
            estimate = avg_estimate([sample])
            if abs(estimate.value[0] - truth) > 1.96 * estimate.error[0]:
                misses += 1
        assert misses / trials < 0.12  # ~5% expected, generous margin


class TestConfidenceMultiplier:
    def test_95_percent(self):
        assert confidence_multiplier(0.95) == pytest.approx(1.96, abs=0.01)

    def test_99_percent(self):
        assert confidence_multiplier(0.99) == pytest.approx(2.576, abs=0.01)

    def test_monotone(self):
        assert confidence_multiplier(0.99) > confidence_multiplier(0.9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            confidence_multiplier(1.5)

    def test_equals_norm_ppf_bit_for_bit(self):
        from scipy.stats import norm

        for confidence in np.linspace(0.001, 0.999, 999).tolist() + [0.9, 0.95, 0.99]:
            expected = float(norm.ppf(0.5 + confidence / 2.0))
            assert confidence_multiplier(confidence) == expected, confidence

    def test_server_start_leaves_scipy_stats_unimported(self):
        # scipy.stats costs ~0.4 s to import: every server start and every
        # crash-matrix restart would pay it.
        script = (
            "import sys\n"
            "import repro.serve.http.server\n"
            "from repro.aqp.estimators import confidence_multiplier\n"
            "confidence_multiplier(0.95)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == "False"
