"""Unit tests for offline sampling and batch splitting."""

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.db.sampling import SampleStore, build_table_sample


class TestBuildTableSample:
    def test_sample_size_matches_ratio(self, small_sales_table):
        config = SamplingConfig(sample_ratio=0.25, num_batches=5, seed=1)
        sample = build_table_sample(small_sales_table, config)
        assert sample.population_size == small_sales_table.num_rows
        assert sample.sample_size == int(round(0.25 * small_sales_table.num_rows))

    def test_batches_cover_sample_exactly(self, small_sales_table):
        config = SamplingConfig(sample_ratio=0.3, num_batches=7, seed=2)
        sample = build_table_sample(small_sales_table, config)
        assert sample.batch_offsets[-1] == sample.sample_size
        assert list(sample.batch_offsets) == sorted(set(sample.batch_offsets))
        assert sample.rows_after_batches(0) == 0
        assert sample.rows_after_batches(sample.num_batches) == sample.sample_size
        assert sample.rows_after_batches(10_000) == sample.sample_size

    def test_prefix_sizes(self, small_sales_table):
        config = SamplingConfig(sample_ratio=0.2, num_batches=4, seed=3)
        sample = build_table_sample(small_sales_table, config)
        sizes = [rows for rows, _ in sample.iter_batch_prefixes()]
        assert sizes == list(sample.batch_offsets)

    def test_sample_is_unbiased_enough(self, small_sales_table):
        """The sample mean of a measure should be close to the population mean."""
        config = SamplingConfig(sample_ratio=0.3, num_batches=4, seed=5)
        sample = build_table_sample(small_sales_table, config)
        population_mean = float(np.mean(small_sales_table.column("revenue")))
        sample_mean = float(np.mean(sample.sample.column("revenue")))
        assert abs(sample_mean - population_mean) / population_mean < 0.05

    def test_deterministic_given_seed(self, small_sales_table):
        config = SamplingConfig(sample_ratio=0.1, num_batches=3, seed=9)
        first = build_table_sample(small_sales_table, config)
        second = build_table_sample(small_sales_table, config)
        assert list(first.sample.column("week")) == list(second.sample.column("week"))


class TestSampleStore:
    def test_caching_and_invalidation(self, sales_catalog):
        store = SampleStore(sales_catalog, SamplingConfig(sample_ratio=0.1, num_batches=3))
        first = store.sample_for("sales")
        assert store.sample_for("sales") is first
        store.invalidate("sales")
        assert store.sample_for("sales") is not first

    def test_invalidate_all(self, sales_catalog):
        store = SampleStore(sales_catalog, SamplingConfig(sample_ratio=0.1, num_batches=3))
        first = store.sample_for("sales")
        store.invalidate()
        assert store.sample_for("sales") is not first

    def test_rebuild_with_new_seed(self, sales_catalog):
        store = SampleStore(sales_catalog, SamplingConfig(sample_ratio=0.1, num_batches=3))
        first = store.sample_for("sales")
        rebuilt = store.rebuild("sales", seed=99)
        assert store.sample_for("sales") is rebuilt
        assert list(first.sample.column("week")) != list(rebuilt.sample.column("week"))


class TestSamplingConfigValidation:
    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SamplingConfig(sample_ratio=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(sample_ratio=1.5)

    def test_invalid_batches(self):
        with pytest.raises(ValueError):
            SamplingConfig(num_batches=0)
