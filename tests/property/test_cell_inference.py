"""The array path of a learned answer against the one-cell-at-a-time oracle.

``VerdictEngine.process_answer`` conditions, validates and recombines every
cell of an answer as array rules over each aggregate function's cells.  These
tests drive the real engine -- a trained model, a real plan, a real group-by
query -- but choose the numbers: each cell's raw values and errors are
redrawn, and each region's Equation 11 posterior ``(theta, gamma^2)`` is
written into the factor's posterior memo, which the engine reads before it
solves anything.  Every cell must equal the scalar reference in
``tests/oracles.py`` byte for byte: value, error, ``improved`` and the
validation reason.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.aqp.types import AQPAnswer, AQPRow
from repro.config import SamplingConfig, VerdictConfig
from repro.core.engine import AskPlan, VerdictEngine
from repro.core.prior import observation_scale
from repro.core.snippet import AggregateKind
from repro.db.catalog import Catalog
from repro.sqlparser import ast
from repro.workloads.synthetic import make_sales_table
from tests import oracles

SQL = (
    "SELECT region, AVG(revenue), SUM(revenue), COUNT(*), FREQ(*) "
    "FROM sales WHERE week >= 5 AND week <= 25 GROUP BY region"
)
TRAINING = (
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 12",
    "SELECT AVG(revenue) FROM sales WHERE week >= 16 AND week <= 30",
    "SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT region, SUM(revenue) FROM sales WHERE week >= 8 AND week <= 30 GROUP BY region",
)
CONFIGS = {
    "default": VerdictConfig(learn_length_scales=False),
    "unvalidated": VerdictConfig(learn_length_scales=False, enable_model_validation=False),
    "floorless": VerdictConfig(learn_length_scales=False, conservative_validation=False),
    "empty": VerdictConfig(learn_length_scales=False),
}


@functools.lru_cache(maxsize=None)
def setup(label: str):
    """``(engine, parsed, check, plan, first raw answer)`` for one config."""
    catalog = Catalog()
    catalog.add_table(make_sales_table(num_rows=4_000, num_weeks=52, seed=11), fact=True)
    aqp = OnlineAggregationEngine(
        catalog, sampling=SamplingConfig(sample_ratio=0.2, num_batches=4, seed=3)
    )
    engine = VerdictEngine(catalog, aqp, config=CONFIGS[label])
    if label != "empty":
        for sql in TRAINING:
            engine.execute(sql, max_batches=2)
        engine.train()
    parsed, check = engine.check(SQL)
    raw = next(iter(aqp.run(parsed)))
    plan = AskPlan(parsed)
    engine.process_answer(parsed, raw, check, plan=plan)
    return engine, parsed, check, plan, raw


answers = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0])
)
errors = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))
densities = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.just(0.0))
variances = st.one_of(
    st.sampled_from([0.0, -1.0, math.inf, math.nan, 1e-18]), st.floats(1e-9, 1e6)
)
cell_numbers = st.tuples(answers, errors, densities, errors, answers, errors)
posteriors = st.tuples(answers, variances)


def with_numbers(raw: AQPAnswer, numbers, population: int) -> AQPAnswer:
    """``raw`` with every cell's numbers replaced, in (row, name) order."""
    drawn = iter(numbers)
    rows = []
    for row in raw.rows:
        estimates = {}
        for name, estimate in row.estimates.items():
            value, error, freq_value, freq_error, avg_value, avg_error = next(drawn)
            internal = estimate.internal
            estimates[name] = replace(
                estimate,
                value=value,
                error=error,
                internal=replace(
                    internal,
                    freq_value=freq_value,
                    freq_error=freq_error,
                    avg_value=None if internal.avg_value is None else avg_value,
                    avg_error=None if internal.avg_value is None else avg_error,
                ),
            )
        rows.append(AQPRow(group_values=row.group_values, estimates=estimates))
    return replace(raw, rows=rows, population_size=population)


def expected_cell(engine, plan, position, raw, table):
    """The oracle's ``(value, error, improved, reason)`` of one cell."""
    config = engine.config
    row, name, function = plan.cells[position]
    estimate = raw.rows[row].estimates[name]
    internal = estimate.internal
    region = plan.regions[position]
    parts = {}
    for key in plan.snippet_keys[position]:
        if key is None:
            continue
        is_freq = key.kind is AggregateKind.FREQ
        raw_answer = internal.freq_value if is_freq else internal.avg_value
        raw_error = internal.freq_error if is_freq else (internal.avg_error or 0.0)
        prepared = table.get(key)
        if prepared is None:
            parts[key.kind] = (raw_answer, raw_error, False, "empty synopsis")
            continue
        gp_mean, gamma2 = prepared.posterior_memo[region]
        scale = observation_scale(region, prepared.covariance.domains) if is_freq else None
        model_answer, model_error = oracles.condition(
            gp_mean, gamma2, raw_answer, raw_error, scale
        )
        accepted, reason, answer, error, _ = oracles.validate(
            model_answer,
            model_error,
            raw_answer,
            raw_error,
            is_freq,
            config.validation_confidence,
            config.enable_model_validation,
            config.conservative_validation,
        )
        parts[key.kind] = (answer, error, accepted and error < raw_error, reason)
    return oracles.assemble_cell(
        function,
        raw.population_size,
        estimate.value,
        estimate.error,
        parts.get(AggregateKind.AVG),
        parts.get(AggregateKind.FREQ),
    )


def run_case(label, numbers, memo_values, population):
    """Serve drawn numbers through the engine; return (answer, expectations)."""
    engine, parsed, check, plan, first = setup(label)
    raw = with_numbers(first, numbers, population)
    table = {key: engine._prepared_for(key) for key, _ in plan.keys}
    drawn = iter(memo_values)
    for key, regions in plan.keys:
        if table[key] is not None:
            for region in regions:
                table[key].posterior_memo[region] = next(drawn)
    answer = engine.process_answer(parsed, raw, check, plan=plan)
    assert answer.supported and len(plan.cells) == cell_count()
    expected = {
        plan.cells[position][:2]: expected_cell(engine, plan, position, raw, table)
        for position in range(len(plan.cells))
    }
    return answer, expected


def assert_matches(answer, expected) -> list[str]:
    """Every cell equals its oracle bit for bit; returns the reasons seen."""
    seen = []
    for row_index, row in enumerate(answer.rows):
        for name, cell in row.estimates.items():
            want = expected.get((row_index, name))
            if want is None:
                assert cell.validation_reason == "passthrough"
                assert (cell.value, cell.error) == (cell.raw_value, cell.raw_error)
                continue
            value, error, improved, reason = want
            assert float(cell.value).hex() == float(value).hex(), (name, cell, want)
            assert float(cell.error).hex() == float(error).hex(), (name, cell, want)
            assert cell.improved is bool(improved)
            assert cell.validation_reason == reason
            seen.append(reason)
    return seen


def cell_count() -> int:
    _, _, _, _, raw = setup("default")
    return sum(len(row.estimates) for row in raw.rows)


def memo_count() -> int:
    _, _, _, plan, _ = setup("default")
    return sum(len(regions) for _, regions in plan.keys)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_cells_equal_the_scalar_oracle_bytewise(data):
    label = data.draw(st.sampled_from(sorted(CONFIGS)))
    numbers = data.draw(st.lists(cell_numbers, min_size=cell_count(), max_size=cell_count()))
    memo_values = data.draw(
        st.lists(posteriors, min_size=memo_count(), max_size=memo_count())
    )
    population = data.draw(st.integers(1, 10**6))
    answer, expected = run_case(label, numbers, memo_values, population)
    assert_matches(answer, expected)


def test_every_branch_matches_the_oracle():
    """Hand-picked numbers reach each branch the property test may miss.

    Each case gives every cell the same numbers and every region of an AVG
    (FREQ) key the same posterior, and names a reason some cell must show.
    """
    plain = (5.0, 1.0, 0.2, 0.01, 5.0, 1.0)
    cases = [
        # Zero raw errors: Equation 12 keeps the raw answer, which is exact.
        ("default", (5.0, 0.0, 0.2, 0.0, 5.0, 0.0), (4.0, 1.0), (4.0, 1.0), "model accepted"),
        # gamma^2 of 0, -1, inf and NaN pass the raw answer through.
        ("default", plain, (4.0, 0.0), (4.0, 0.0), "model accepted"),
        ("default", plain, (4.0, -1.0), (4.0, -1.0), "model accepted"),
        ("default", plain, (4.0, math.inf), (4.0, math.inf), "model accepted"),
        ("default", plain, (4.0, math.nan), (4.0, math.nan), "model accepted"),
        # A negative model density: rejected with validation, clipped without.
        ("default", (5.0, 1.0, 0.01, 0.5, 5.0, 1.0), (5.0, 1.0), (-50.0, 1e-6),
         "negative FREQ estimate"),
        ("unvalidated", (5.0, 1.0, 0.01, 0.5, 5.0, 1.0), (5.0, 1.0), (-50.0, 1e-6),
         "negative FREQ clipped"),
        ("unvalidated", plain, (5.0, 1.0), (4.0, 1.0), "validation disabled"),
        # A model far from a raw answer with a tight raw error.
        ("default", (5.0, 0.01, 0.2, 1e-4, 5.0, 0.01), (500.0, 1e-6), (500.0, 1e-6),
         "raw answer outside likely region"),
        # A SUM whose recombined error exceeds the cell's raw error.
        ("default", (5.0, 1e-9, 0.2, 0.01, 5.0, 1.0), (5.0, 1.0), (4.0, 1.0),
         "recombination not tighter than raw"),
        # SUM joins two different part reasons (a loose raw SUM error, so
        # the cap leaves the recombination alone).
        ("floorless", (5.0, 1e6, 0.2, 0.01, 5.0, 1.0), (5.1, 0.5), (99.0, 1e-6),
         "model accepted; raw answer outside likely region"),
        ("empty", plain, None, None, "empty synopsis"),
    ]
    _, _, _, plan, _ = setup("default")
    for label, numbers, avg_posterior, freq_posterior, wanted in cases:
        memo_values = [
            avg_posterior if key.kind is AggregateKind.AVG else freq_posterior
            for key, regions in plan.keys
            for _ in regions
        ]
        answer, expected = run_case(
            label, [numbers] * cell_count(), memo_values, 1_000
        )
        assert wanted in assert_matches(answer, expected), (label, wanted)


@pytest.mark.parametrize(
    "a, b", [(1.8871580461934296, 1.1609821331584274), (1.1609821331584274, 1.8871580461934296)]
)
def test_sum_error_squares_like_python(a, b):
    """SUM's error squares both its terms with C ``pow``, as the scalar
    rule's ``x ** 2`` does: ``x * x`` rounds 1.887... differently, and the
    difference survives the square root (each order puts it in one term)."""
    from repro.core.engine import _recombine

    # One SUM cell over two entries: its AVG part (a, b) and FREQ part (1, 1).
    layout = [np.array([0]), np.array([1]), np.array([False]), np.array([0])]
    entries = (np.array([a, 1.0]), np.array([b, 1.0]), np.zeros(2, bool), np.zeros(2, int))
    _, (error,), _, _, _ = _recombine(layout, 1, entries, np.zeros(6))
    assert error == math.sqrt(b**2 + a**2)
    expected = oracles.assemble_cell(
        ast.AggregateFunction.SUM, 1, 0.0, 0.0, (a, b, False, ""), (1.0, 1.0, False, "")
    )
    assert error == expected[1]
