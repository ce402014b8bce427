"""``VerdictConfig.confidence`` is the one source of the reported level.

The service (served bounds, budget checks, EXPLAIN), the planner (estimated
route errors) and the experiment runner (profile bounds) all read it; none
takes a confidence of its own.
"""

from __future__ import annotations

import pytest

from repro.aqp.estimators import confidence_multiplier
from repro.config import SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.experiments.runner import ExperimentRunner
from repro.serve.planner import ServiceBudget
from repro.serve.service import VerdictService
from repro.workloads.synthetic import make_sales_table

SQL = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 30"
SAMPLING = SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)


def sales_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_sales_table(num_rows=2_000, num_weeks=52, seed=9), fact=True)
    return catalog


def serve_once(confidence: float) -> tuple[float, float, float, float]:
    """(multiplier, served bound, planned error, EXPLAIN's level) at a level."""
    config = VerdictConfig(confidence=confidence, learn_length_scales=False)
    with VerdictService(sales_catalog(), config=config, sampling=SAMPLING) as service:
        parsed, check = service.engine.check(SQL)
        (planned, *_) = service.planner.plan(parsed, check, ServiceBudget())
        level = service.explain(SQL)["cost_model_inputs"]["confidence"]
        answer = service.query(SQL, record=False)
        return service.multiplier, answer.relative_error_bound, planned.estimated_error, level


def test_service_and_planner_read_the_configured_level():
    multiplier, bound, planned, level = serve_once(0.90)
    wide_multiplier, wide_bound, wide_planned, _ = serve_once(0.95)
    ratio = confidence_multiplier(0.90) / confidence_multiplier(0.95)
    assert multiplier == confidence_multiplier(0.90)
    assert level == 0.90
    assert wide_multiplier == confidence_multiplier(0.95)
    # Same data, same sample: only the level moved, so every bound scales.
    assert bound == pytest.approx(wide_bound * ratio, rel=1e-12)
    assert planned == pytest.approx(wide_planned * ratio, rel=1e-12)


def test_runner_reads_the_configured_level():
    runner = ExperimentRunner(
        sales_catalog(),
        sampling=SAMPLING,
        config=VerdictConfig(confidence=0.90, learn_length_scales=False),
    )
    assert runner.multiplier == confidence_multiplier(0.90)
