"""Factorized kernel vs the row-loop oracle: identical answers end to end.

Runs the workload query traces (Customer1-like and TPC-H-like, the latter
with fact-dimension joins and HAVING) through the exact executor and the AQP
estimation, and through the row-loop oracle of ``tests/oracles.py``, and
asserts the answers are identical: same group order, same group keys, same
aggregate floats, same CLT errors.  Also covers the append scenario: after
``replace_table`` the denormalization cache must serve the *new* contents.
"""

import numpy as np
import pytest

from repro.aqp.evaluation import estimate_answer
from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import SamplingConfig
from repro.db.executor import ExactExecutor
from repro.sqlparser.parser import parse_query
from repro.workloads.customer1 import Customer1Workload
from repro.workloads.tpch import TPCHWorkload
from tests import oracles


def assert_exact_results_identical(result, expected):
    assert result.group_columns == expected.group_columns
    assert result.aggregate_names == expected.aggregate_names
    assert [r.group_values for r in result.rows] == [
        r.group_values for r in expected.rows
    ]
    for new_row, old_row in zip(result.rows, expected.rows):
        assert new_row.aggregates == old_row.aggregates


def assert_answers_identical(rows, expected_rows):
    assert [r.group_values for r in rows] == [r.group_values for r in expected_rows]
    for new_row, old_row in zip(rows, expected_rows):
        assert new_row.estimates.keys() == old_row.estimates.keys()
        for name in new_row.estimates:
            assert new_row.estimates[name].value == old_row.estimates[name].value
            assert new_row.estimates[name].error == old_row.estimates[name].error


@pytest.fixture(scope="module")
def customer1():
    workload = Customer1Workload(num_rows=4_000, num_days=60, seed=13)
    catalog = workload.build_catalog()
    trace = [q.sql for q in workload.generate_trace(num_queries=20, seed=14)]
    # Predicates no row satisfies: a scalar query's one group is then empty
    # (every aggregate over no rows) and a grouped query has no groups.
    trace.append(
        "SELECT COUNT(*), SUM(revenue), AVG(price), MIN(price), MAX(revenue) "
        "FROM sales WHERE date_key < 0"
    )
    trace.append(
        "SELECT region, COUNT(*), SUM(revenue) FROM sales "
        "JOIN dim_store ON store_key = store_key WHERE date_key < 0 GROUP BY region"
    )
    return catalog, trace


@pytest.fixture(scope="module")
def tpch():
    workload = TPCHWorkload(scale=0.05, seed=17)
    catalog = workload.build_catalog()
    queries = [q.sql for q in workload.supported_queries(num_queries=12, seed=18)]
    # Include an explicit join + HAVING query (Q18-style).
    queries.append(
        "SELECT c_mktsegment, SUM(l_quantity) FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "GROUP BY c_mktsegment HAVING sum_l_quantity > 100"
    )
    return catalog, queries


class TestExactExecutorEquivalence:
    def test_customer1_trace(self, customer1):
        catalog, trace = customer1
        executor = ExactExecutor(catalog)
        for sql in trace:
            query = parse_query(sql)
            assert_exact_results_identical(
                executor.execute(query), oracles.execute(catalog, query)
            )

    def test_tpch_trace_with_joins_and_having(self, tpch):
        catalog, queries = tpch
        executor = ExactExecutor(catalog)
        for sql in queries:
            query = parse_query(sql)
            if query.has_subquery:
                continue
            assert_exact_results_identical(
                executor.execute(query), oracles.execute(catalog, query)
            )


class TestAQPEquivalence:
    def test_estimate_answer_over_traces(self, customer1):
        catalog, trace = customer1
        for sql in trace:
            query = parse_query(sql)
            table = catalog.denormalize(query)
            rows = len(table)
            answer = estimate_answer(query, table, rows, rows, rows, 0.0)
            assert_answers_identical(answer.rows, oracles.estimate(query, table, rows, rows))

    def test_online_aggregation_engines_agree(self, tpch):
        catalog, queries = tpch
        sampling = SamplingConfig(sample_ratio=0.3, num_batches=3, seed=5)
        engine = OnlineAggregationEngine(catalog, sampling=sampling)
        checked = 0
        for sql in queries[:4]:
            query = parse_query(sql)
            if query.has_subquery:
                continue
            prefixes = engine.samples.sample_for(query.table).iter_batch_prefixes()
            for answer, (_, prefix) in zip(engine.run(query), prefixes):
                joined = catalog.join_all(prefix, query.joins)
                expected = oracles.estimate(
                    query, joined, answer.rows_scanned, answer.population_size
                )
                assert_answers_identical(answer.rows, expected)
                checked += 1
        assert checked


class TestAppendScenario:
    def test_denormalization_cache_sees_appended_rows(self, tpch):
        catalog, _ = tpch
        sql = (
            "SELECT c_mktsegment, COUNT(*) FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
        )
        query = parse_query(sql)
        executor = ExactExecutor(catalog)
        before = executor.execute(query)
        # Warm the cache, then append: double the fact table.
        lineitem = catalog.table("lineitem")
        catalog.replace_table(lineitem.append(lineitem))
        after = executor.execute(query)
        assert_exact_results_identical(after, oracles.execute(catalog, query))
        total_before = sum(r.aggregates["count_star"] for r in before.rows)
        total_after = sum(r.aggregates["count_star"] for r in after.rows)
        assert total_after == 2 * total_before
        # Restore for other tests sharing the fixture.
        catalog.replace_table(lineitem)

    def test_sample_invalidation_refreshes_prefix_cache(self, customer1):
        catalog, _ = customer1
        fact_name = catalog.fact_tables()[0]
        sql = f"SELECT COUNT(*) FROM {fact_name}"
        query = parse_query(sql)
        engine = OnlineAggregationEngine(
            catalog, sampling=SamplingConfig(sample_ratio=0.25, num_batches=2, seed=3)
        )
        first = engine.final_answer(query)
        fact = catalog.table(fact_name)
        catalog.replace_table(fact.append(fact))
        engine.samples.invalidate(fact_name)
        second = engine.final_answer(query)
        count_estimate_before = first.rows[0].estimates["count_star"].value
        count_estimate_after = second.rows[0].estimates["count_star"].value
        assert count_estimate_after == pytest.approx(2 * count_estimate_before, rel=0.01)
        catalog.replace_table(fact)
        engine.samples.invalidate(fact_name)


def test_numpy_join_drops_unmatched_like_legacy(tpch):
    catalog, _ = tpch
    lineitem = catalog.table("lineitem")
    keys = np.asarray(lineitem.column("l_orderkey"))
    # Sanity: the NumPy FK match keeps row order and drops nothing when
    # every key resolves.
    query = parse_query(
        "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
    )
    joined = catalog.denormalize(query)
    assert len(joined) == len(keys)
