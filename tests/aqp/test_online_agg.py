"""Unit tests for the online aggregation engine (NoLearn)."""

import numpy as np
import pytest

from repro import faults
from repro.aqp.online_agg import OnlineAggregationEngine
from repro.config import CostModelConfig, SamplingConfig
from repro.db.catalog import Catalog
from repro.db.schema import ColumnKind, Schema, categorical_dimension, key, measure
from repro.db.schema import numeric_dimension
from repro.db.table import Table
from repro.db.executor import ExactExecutor
from repro.deadline import CancelToken, Deadline, Limits
from repro.errors import AQPError, DeadlineExceeded, FaultInjectedError, QueryCancelled
from repro.faults import FaultPlan, FaultRule
from repro.obs.trace import Span
from repro.sqlparser.parser import parse_query


@pytest.fixture()
def engine(sales_catalog):
    return OnlineAggregationEngine(
        sales_catalog,
        sampling=SamplingConfig(sample_ratio=0.3, num_batches=5, seed=2),
        cost_model=CostModelConfig(cached=True),
    )


class TestOnlineAggregation:
    def test_yields_one_answer_per_batch(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25")
        answers = list(engine.run(query))
        assert len(answers) == 5
        assert [a.batches_processed for a in answers] == [1, 2, 3, 4, 5]
        rows_scanned = [a.rows_scanned for a in answers]
        assert rows_scanned == sorted(rows_scanned)

    def test_elapsed_time_increases_with_batches(self, engine):
        query = parse_query("SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 10")
        answers = list(engine.run(query))
        elapsed = [a.elapsed_seconds for a in answers]
        assert elapsed == sorted(elapsed)
        assert elapsed[0] >= engine.cost_model.planning_overhead_s

    def test_error_bounds_shrink_as_batches_accumulate(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        answers = list(engine.run(query))
        first_error = answers[0].scalar_estimate().error
        last_error = answers[-1].scalar_estimate().error
        assert last_error < first_error

    def test_final_answer_close_to_exact(self, engine, sales_catalog):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 40")
        exact = ExactExecutor(sales_catalog).execute(query).scalar()
        final = engine.final_answer(query)
        estimate = final.scalar_estimate()
        assert abs(estimate.value - exact) <= 4 * estimate.error + 1e-9

    def test_count_estimate_scales_to_population(self, engine, sales_catalog):
        query = parse_query("SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 26")
        exact = ExactExecutor(sales_catalog).execute(query).scalar()
        final = engine.final_answer(query)
        estimate = final.scalar_estimate()
        assert estimate.value == pytest.approx(exact, rel=0.2)

    def test_group_by_rows_have_internal_estimates(self, engine):
        query = parse_query(
            "SELECT region, SUM(revenue), COUNT(*) FROM sales WHERE week <= 30 GROUP BY region"
        )
        final = engine.final_answer(query)
        assert len(final.rows) >= 2
        for row in final.rows:
            sum_estimate = row.estimates["sum_revenue"]
            assert sum_estimate.internal.avg_value is not None
            assert sum_estimate.internal.freq_value > 0
            count_estimate = row.estimates["count_star"]
            assert count_estimate.internal.avg_value is None

    def test_first_answer(self, engine):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        first = engine.first_answer(query)
        assert first.batches_processed == 1

    def test_unknown_table_raises(self, engine):
        with pytest.raises(AQPError):
            list(engine.run(parse_query("SELECT COUNT(*) FROM missing")))

    def test_join_charges_dimension_scan(self, star_catalog):
        engine = OnlineAggregationEngine(
            star_catalog,
            sampling=SamplingConfig(sample_ratio=1.0, num_batches=2, seed=1),
            cost_model=CostModelConfig(cached=True),
        )
        no_join = parse_query("SELECT AVG(amount) FROM orders")
        with_join = parse_query(
            "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        plain = list(engine.run(no_join))[-1]
        joined = list(engine.run(with_join))[-1]
        assert joined.elapsed_seconds > plain.elapsed_seconds

    def test_join_batch_charges_are_pinned(self, star_catalog):
        """Per-batch model seconds of a three-batch JOIN: planning and the
        dimension scan plus its penalty land on the first batch only."""
        engine = OnlineAggregationEngine(
            star_catalog,
            sampling=SamplingConfig(sample_ratio=1.0, num_batches=3, seed=1),
            cost_model=CostModelConfig(
                planning_overhead_s=0.35,
                cached_seconds_per_row=1e-3,
                unsampled_table_scan_penalty_s=0.5,
            ),
        )
        query = parse_query(
            "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        elapsed = [answer.elapsed_seconds for answer in engine.run(query)]
        assert elapsed == [0.8523000000000001, 0.8543000000000001, 0.8563000000000001]

    def test_ssd_cost_model_is_slower(self, sales_catalog):
        sampling = SamplingConfig(sample_ratio=0.2, num_batches=3, seed=4)
        cached = OnlineAggregationEngine(
            sales_catalog, sampling=sampling, cost_model=CostModelConfig(cached=True)
        )
        ssd = OnlineAggregationEngine(
            sales_catalog, sampling=sampling, cost_model=CostModelConfig(cached=False)
        )
        query = parse_query("SELECT AVG(revenue) FROM sales")
        assert ssd.final_answer(query).elapsed_seconds > cached.final_answer(query).elapsed_seconds

    def test_having_filters_estimated_groups(self, engine):
        query = parse_query(
            "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING count_star >= 0"
        )
        final = engine.final_answer(query)
        assert len(final.rows) >= 1
        strict = parse_query(
            "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING count_star > 1000000"
        )
        assert len(engine.final_answer(strict).rows) == 0


def assert_same_answer(actual, expected):
    assert actual.rows == expected.rows
    assert actual.rows_scanned == expected.rows_scanned
    assert actual.batches_processed == expected.batches_processed
    assert actual.elapsed_seconds == expected.elapsed_seconds


@pytest.fixture()
def no_fault_plan():
    faults.clear()
    yield
    faults.clear()


def stall_batch(batch: int) -> None:
    """Make batch ``batch`` sleep 0.4 s before it is joined."""
    rule = FaultRule(point="aqp.batch", action="delay", after=batch, times=1, delay_s=0.4)
    faults.install(FaultPlan([rule]))


class TestFinalAnswerEstimatesOnePrefix:
    """``final_answer`` estimates only the last prefix ``run`` would reach."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25",
            "SELECT region, SUM(revenue), COUNT(*) FROM sales WHERE week <= 30 GROUP BY region",
            "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING count_star >= 40",
        ],
        ids=["scalar", "group_by", "having"],
    )
    def test_equals_the_last_answer_of_run(self, engine, sql):
        query = parse_query(sql)
        assert_same_answer(engine.final_answer(query), list(engine.run(query))[-1])

    def test_join_equals_the_last_answer_of_run(self, star_catalog):
        sampling = SamplingConfig(sample_ratio=1.0, num_batches=3, seed=1)
        query = parse_query(
            "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        # A fresh engine builds and stores the joined prefixes itself; the
        # second call reads them from the catalog's join cache.
        first = OnlineAggregationEngine(star_catalog, sampling=sampling).final_answer(query)
        engine = OnlineAggregationEngine(star_catalog, sampling=sampling)
        expected = list(engine.run(query))[-1]
        assert_same_answer(first, expected)
        assert_same_answer(engine.final_answer(query), expected)

    def test_estimates_once(self, engine, monkeypatch):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25")
        estimated = []
        estimate = engine._estimate
        monkeypatch.setattr(
            engine,
            "_estimate",
            lambda q, prefix, limits: estimated.append(1) or estimate(q, prefix, limits),
        )
        engine.final_answer(query)
        assert len(estimated) == 1

    @pytest.mark.parametrize("batch", [1, 3])
    def test_deadline_after_batch_k_returns_batch_k(self, engine, no_fault_plan, batch):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25")
        expected = list(engine.run(query))[batch - 1]
        # Batch k stalls past the deadline; batch k + 1's poll then raises.
        stall_batch(batch)
        answer = engine.final_answer(query, Limits(deadline=Deadline.after(0.2)))
        assert_same_answer(answer, expected)

    def test_estimate_after_the_deadline_scans_under_the_span(self, engine, no_fault_plan):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25")
        parent = Span("route.online_agg")
        stall_batch(1)
        engine.final_answer(query, Limits(deadline=Deadline.after(0.2), span=parent))
        # The one estimate drops the deadline but keeps the trace.
        assert [span.name for span in parent.children] == ["scan"]

    def test_deadline_before_any_batch_raises(self, engine, no_fault_plan):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        deadline = Deadline(expires_at=0.0, budget_s=1.0)
        with pytest.raises(DeadlineExceeded):
            engine.final_answer(query, Limits(deadline=deadline))

    def test_cancel_still_aborts_the_estimate_after_the_deadline(
        self, engine, no_fault_plan
    ):
        query = parse_query("SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 25")
        deadline = Deadline.after(0.2)
        # The token arms itself once the deadline has expired: only after
        # the last batch's poll, while that batch stalls.  The one estimate
        # runs without the deadline but must still see the token.
        token = CancelToken(
            probe=lambda: "requested" if deadline.expired else None, probe_interval_s=0.0
        )
        stall_batch(engine.sampling.num_batches)
        with pytest.raises(QueryCancelled):
            engine.final_answer(query, Limits(deadline=deadline, cancel=token))

    def test_fault_at_batch_k_still_raises(self, engine, no_fault_plan):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        faults.install(FaultPlan([FaultRule(point="aqp.batch", action="error", after=3)]))
        with pytest.raises(FaultInjectedError):
            engine.final_answer(query)


def dropping_star_catalog(rows: int = 200) -> Catalog:
    """Orders joined to stores and to regions, where some orders name a
    store and some stores a region that does not exist (the inner join drops
    those rows)."""
    rng = np.random.default_rng(4)
    orders = Table(
        "orders",
        Schema.of([
            numeric_dimension("day", ColumnKind.INT), key("store_id"), measure("amount"),
        ]),  # fmt: skip
        {
            "day": rng.integers(1, 30, rows).tolist(),
            "store_id": rng.integers(0, 7, rows).tolist(),  # stores 5 and 6 do not exist
            "amount": rng.normal(50.0, 10.0, rows).tolist(),
        },
    )
    stores = Table(
        "stores",
        Schema.of([key("store_id"), key("region_id"), categorical_dimension("kind")]),
        {
            "store_id": [0, 1, 2, 3, 4],
            "region_id": [0, 1, 0, 9, 1],  # region 9 does not exist
            "kind": ["mall", "street", "mall", "outlet", "street"],
        },
    )
    regions = Table(
        "regions",
        Schema.of([key("region_id"), categorical_dimension("region")]),
        {"region_id": [0, 1], "region": ["east", "west"]},
    )
    catalog = Catalog()
    catalog.add_table(orders, fact=True)
    catalog.add_table(stores)
    catalog.add_table(regions)
    catalog.add_foreign_key("orders", "store_id", "stores", "store_id")
    catalog.add_foreign_key("stores", "region_id", "regions", "region_id")
    return catalog


JOINED_SQL = (
    "SELECT region, AVG(amount) FROM orders JOIN stores ON store_id = store_id "
    "JOIN regions ON region_id = region_id GROUP BY region"
)


class TestJoinedPrefixViews:
    """A sample is joined once per (sample, joins); every batch's joined
    prefix is a memoised view of that join."""

    @staticmethod
    def assert_same_table(view: Table, joined: Table) -> None:
        assert view.column_names() == joined.column_names()
        assert len(view) == len(joined)
        for name in joined.column_names():
            if name in joined._dictionaries:
                assert view._dictionaries[name] is joined._dictionaries[name]
                assert np.array_equal(view.codes(name), joined.codes(name))
            else:
                assert view._data[name].tobytes() == joined._data[name].tobytes()

    def test_each_view_equals_the_join_of_its_batch_prefix(self):
        catalog = dropping_star_catalog()
        engine = OnlineAggregationEngine(
            catalog, sampling=SamplingConfig(sample_ratio=0.6, num_batches=5, seed=2)
        )
        query = parse_query(JOINED_SQL)
        sample = engine.samples.sample_for("orders")
        prefixes = list(engine._prefixes(query, Limits()))
        assert len(prefixes) == sample.num_batches
        dropped = 0
        for batch, prefix in enumerate(prefixes, start=1):
            rows = sample.rows_after_batches(batch)
            joined = catalog.join_all(sample.prefix(rows), query.joins)
            self.assert_same_table(prefix.joined, joined)
            dropped = rows - len(joined)
        assert dropped > 0  # the join really drops rows

    def test_one_join_per_sample_and_views_are_shared(self):
        catalog = dropping_star_catalog()
        engine = OnlineAggregationEngine(
            catalog, sampling=SamplingConfig(sample_ratio=0.6, num_batches=5, seed=2)
        )
        query = parse_query(JOINED_SQL)
        first = [prefix.joined for prefix in engine._prefixes(query, Limits())]
        assert len(catalog.join_cache) == 1
        second = [prefix.joined for prefix in engine._prefixes(query, Limits())]
        assert all(a is b for a, b in zip(first, second))
        answers = list(engine.run(query))
        assert answers[-1].rows_scanned == len(first[-1])
