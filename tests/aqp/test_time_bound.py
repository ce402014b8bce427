"""Unit tests for the time-bound AQP engine."""

import pytest

from repro.aqp.time_bound import TimeBoundEngine
from repro.config import CostModelConfig, SamplingConfig
from repro.errors import AQPError
from repro.sqlparser.parser import parse_query


@pytest.fixture()
def engine(sales_catalog):
    return TimeBoundEngine(
        sales_catalog,
        sampling=SamplingConfig(sample_ratio=0.5, num_batches=4, seed=6),
        cost_model=CostModelConfig(
            cached=True, planning_overhead_s=0.1, cached_seconds_per_row=1e-4
        ),
    )


class TestTimeBoundEngine:
    def test_respects_time_budget(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        answer = engine.execute(query, time_budget_s=0.15)
        # 0.05s of scan at 1e-4 s/row -> about 500 rows.
        assert answer.rows_scanned <= 600
        assert answer.elapsed_seconds <= 0.16 + 1e-9

    def test_larger_budget_scans_more_rows(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        small = engine.execute(query, time_budget_s=0.12)
        large = engine.execute(query, time_budget_s=0.3)
        assert large.rows_scanned > small.rows_scanned
        assert large.scalar_estimate().error < small.scalar_estimate().error

    def test_budget_cannot_exceed_sample(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        answer = engine.execute(query, time_budget_s=1e6)
        assert answer.rows_scanned == engine.samples.sample_for("sales").sample_size

    def test_tiny_budget_still_scans_one_row(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        answer = engine.execute(query, time_budget_s=0.0501)
        assert answer.rows_scanned >= 1

    def test_invalid_budget(self, engine):
        with pytest.raises(AQPError):
            engine.execute(parse_query("SELECT COUNT(*) FROM sales"), time_budget_s=0.0)

    def test_unknown_table(self, engine):
        with pytest.raises(AQPError):
            engine.execute(parse_query("SELECT COUNT(*) FROM missing"), time_budget_s=1.0)

    def test_join_budget_accounts_for_dimension_tables(self, star_catalog):
        engine = TimeBoundEngine(
            star_catalog,
            sampling=SamplingConfig(sample_ratio=1.0, num_batches=2, seed=1),
            cost_model=CostModelConfig(
                cached=True,
                planning_overhead_s=0.0,
                cached_seconds_per_row=1e-3,
                unsampled_table_scan_penalty_s=0.001,
            ),
        )
        query = parse_query(
            "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        answer = engine.execute(query, time_budget_s=0.01)
        assert answer.rows_scanned >= 1
        assert len(answer.rows) >= 1

    def test_join_budget_row_count_is_pinned(self, star_catalog):
        """The rows a join budget buys, and what scanning them charges."""
        engine = TimeBoundEngine(
            star_catalog,
            sampling=SamplingConfig(sample_ratio=1.0, num_batches=2, seed=1),
            cost_model=CostModelConfig(
                planning_overhead_s=0.0,
                cached_seconds_per_row=1e-3,
                unsampled_table_scan_penalty_s=0.001,
            ),
        )
        query = parse_query(
            "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        answer = engine.execute(query, time_budget_s=0.005)
        # 0.005 s - 0.001 s penalty - 3 dimension rows at a tenth of 1e-3 s
        # leaves 0.0037 s: three fact rows.
        assert (answer.rows_scanned, answer.elapsed_seconds) == (3, 0.0043)
