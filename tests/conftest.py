"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.core.engine import VerdictEngine
from repro.db import scan as scan_module
from repro.db.catalog import Catalog
from repro.db.executor import ExactExecutor
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    key,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.workloads.synthetic import make_sales_table


@pytest.fixture()
def recorded_morsels():
    """Context manager yielding the row count of every scan-driver evaluation.

    One entry per morsel, appended just before the predicate is evaluated
    over it; ``on_call`` (if given) runs at that moment too.
    """

    @contextmanager
    def record(on_call=None):
        sizes: list[int] = []
        evaluate = scan_module.evaluate_predicate

        def recording(predicate, morsel):
            sizes.append(len(morsel))
            if on_call is not None:
                on_call()
            return evaluate(predicate, morsel)

        with mock.patch.object(scan_module, "evaluate_predicate", recording):
            yield sizes

    return record


@pytest.fixture(scope="session")
def small_sales_table() -> Table:
    """A small deterministic sales table shared across tests."""
    return make_sales_table(num_rows=4_000, num_weeks=52, seed=11)


@pytest.fixture()
def sales_catalog(small_sales_table: Table) -> Catalog:
    catalog = Catalog()
    catalog.add_table(small_sales_table, fact=True)
    return catalog


@pytest.fixture()
def tiny_table() -> Table:
    """A hand-written five-row table with known aggregates."""
    schema = Schema.of(
        [
            numeric_dimension("week", ColumnKind.INT),
            categorical_dimension("region"),
            measure("revenue"),
            measure("discount"),
        ]
    )
    return Table(
        "tiny",
        schema,
        {
            "week": [1, 1, 2, 3, 3],
            "region": ["east", "west", "east", "west", "east"],
            "revenue": [10.0, 20.0, 30.0, 40.0, 50.0],
            "discount": [0.1, 0.2, 0.0, 0.5, 0.3],
        },
    )


@pytest.fixture()
def tiny_catalog(tiny_table: Table) -> Catalog:
    catalog = Catalog()
    catalog.add_table(tiny_table, fact=True)
    return catalog


@pytest.fixture()
def star_catalog() -> Catalog:
    """A minimal fact + dimension catalog for join tests."""
    fact = Table(
        "orders",
        Schema.of(
            [
                numeric_dimension("day", ColumnKind.INT),
                key("store_id"),
                measure("amount"),
            ]
        ),
        {
            "day": [1, 2, 3, 4, 5, 6],
            "store_id": [0, 1, 0, 1, 2, 2],
            "amount": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        },
    )
    stores = Table(
        "stores",
        Schema.of([key("store_id"), categorical_dimension("region")]),
        {"store_id": [0, 1, 2], "region": ["east", "west", "east"]},
    )
    catalog = Catalog()
    catalog.add_table(fact, fact=True)
    catalog.add_table(stores)
    catalog.add_foreign_key("orders", "store_id", "stores", "store_id")
    return catalog


@pytest.fixture()
def fast_sampling() -> SamplingConfig:
    return SamplingConfig(sample_ratio=0.2, num_batches=4, seed=3)


@pytest.fixture()
def cached_cost_model() -> CostModelConfig:
    return CostModelConfig(cached=True)


@pytest.fixture()
def verdict_setup(sales_catalog: Catalog, fast_sampling: SamplingConfig):
    """(catalog, aqp engine, verdict engine, exact executor) on the sales table."""
    aqp = OnlineAggregationEngine(sales_catalog, sampling=fast_sampling)
    config = VerdictConfig(learn_length_scales=False, learning_restarts=1)
    verdict = VerdictEngine(sales_catalog, aqp, config=config)
    exact = ExactExecutor(sales_catalog)
    return sales_catalog, aqp, verdict, exact


def train_verdict(verdict: VerdictEngine, queries, learn: bool = False) -> None:
    """Run training queries through the engine and fit the model."""
    for sql in queries:
        parsed, check = verdict.check(sql)
        if not check.supported:
            continue
        raw = verdict.aqp.final_answer(parsed)
        verdict.record(parsed, raw)
    verdict.train(learn)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
