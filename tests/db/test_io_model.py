"""Unit tests for the deterministic IO cost model (``CostModelConfig``)."""

import pytest

from repro.config import DIMENSION_ROW_COST_FACTOR, CostModelConfig


class TestCostModelConfig:
    def test_seconds_per_row_switches_with_storage(self):
        cached = CostModelConfig(cached=True)
        ssd = CostModelConfig(cached=False)
        assert cached.seconds_per_row == cached.cached_seconds_per_row
        assert ssd.seconds_per_row == ssd.ssd_seconds_per_row
        assert ssd.seconds_per_row > cached.seconds_per_row

    def test_charge_composition(self):
        config = CostModelConfig(planning_overhead_s=0.5, cached_seconds_per_row=1e-6)
        assert config.charge(1_000_000) == pytest.approx(0.5 + 1.0)
        with_dimensions = config.charge(0, dimension_rows=1)
        assert with_dimensions == pytest.approx(0.5 + config.unsampled_table_scan_penalty_s)
        # Planning, then the sample and dimension scan, then the penalty:
        # the float operations in this order.
        config = config.with_options(unsampled_table_scan_penalty_s=1.5)
        assert config.charge(300, dimension_rows=40) == (
            0.5 + (300 * 1e-6 + 40 * 1e-6 * DIMENSION_ROW_COST_FACTOR)
        ) + 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModelConfig(planning_overhead_s=-1)
        with pytest.raises(ValueError):
            CostModelConfig(cached_seconds_per_row=0)
        config = CostModelConfig()
        with pytest.raises(ValueError):
            config.scan_seconds(-1)

    def test_with_options(self):
        config = CostModelConfig().with_options(cached=False)
        assert config.cached is False


class TestCharge:
    def test_planning_is_charged_on_the_first_batch_only(self):
        config = CostModelConfig(planning_overhead_s=0.1, cached_seconds_per_row=1e-3)
        first = config.charge(100)
        assert first == pytest.approx(0.1 + 0.1)
        later = config.charge(50, planning=False)
        assert later == pytest.approx(0.05)
        assert first + later == pytest.approx(0.1 + 0.1 + 0.05)

    def test_unsampled_penalty_applied_once(self):
        config = CostModelConfig(
            planning_overhead_s=0.0,
            cached_seconds_per_row=1e-6,
            unsampled_table_scan_penalty_s=0.5,
        )
        scan = config.scan_seconds(1000) * DIMENSION_ROW_COST_FACTOR
        assert config.charge(0, dimension_rows=1000) - scan == pytest.approx(
            config.unsampled_table_scan_penalty_s
        )
        # The penalty is per query, not per dimension row.
        assert config.charge(0, dimension_rows=2000) - 2 * scan == pytest.approx(0.5)
        assert config.charge(10, dimension_rows=0) == config.scan_seconds(10)

    def test_negative_rows_rejected(self):
        config = CostModelConfig()
        with pytest.raises(ValueError):
            config.charge(-1)
        with pytest.raises(ValueError):
            config.charge(0, dimension_rows=-1)

    def test_rows_for_budget_inverts_cost(self):
        config = CostModelConfig(planning_overhead_s=0.2, cached_seconds_per_row=1e-5)
        rows = config.rows_for_budget(1.2)
        # 1.0 second of scan at 1e-5 s/row -> 100000 rows.
        assert rows == pytest.approx(100_000, rel=0.01)
        assert config.charge(rows) <= 1.2 < config.charge(rows + 2)
        assert config.rows_for_budget(0.1) == 0
        assert config.rows_for_budget(-1.0) == 0

    def test_rows_for_budget_accounts_for_unsampled_tables(self):
        config = CostModelConfig(
            planning_overhead_s=0.0,
            cached_seconds_per_row=1e-5,
            unsampled_table_scan_penalty_s=0.5,
        )
        without = config.rows_for_budget(1.0)
        with_dims = config.rows_for_budget(1.0, dimension_rows=10_000)
        assert with_dims < without
        assert config.charge(with_dims, 10_000) <= 1.0 < config.charge(with_dims + 2, 10_000)
