"""Property-based equivalence of the factorized group-by kernel.

The factorized kernel (`repro.db.groupby.factorize` + segment aggregation)
must reproduce the per-row oracle (`tests/oracles.py`: a dict of first-seen
keys and one boolean mask per group) *byte for byte*: same group order, same
key tuples (including Python value types), same aggregate floats.  The strategies sweep int, float,
and object group columns, empty selections, single-group and all-distinct
extremes, multi-column keys, and tables built through take, filter, slice,
append and join (``tests/histories.py``).
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.aqp.evaluation import estimate_answer
from repro.db.executor import ExactExecutor
from repro.db.catalog import Catalog
from repro.db.groupby import factorize
from repro.db.schema import ColumnKind, Schema, categorical_dimension, measure, numeric_dimension
from repro.db.table import Table
from repro.sqlparser.parser import parse_query
from tests import histories, oracles

def build_table(ints, floats, objects, measures):
    rows = len(measures)
    schema = Schema.of(
        [
            numeric_dimension("i", ColumnKind.INT),
            numeric_dimension("f"),
            categorical_dimension("c"),
            measure("m"),
        ]
    )
    return Table(
        "t",
        schema,
        {"i": ints[:rows], "f": floats[:rows], "c": objects[:rows], "m": measures},
    )


def keys_match(left: tuple, right: tuple) -> bool:
    """Tuple equality that also requires identical types and treats NaN keys
    as matching positionally (NaN != NaN, so plain == cannot compare them)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if type(a) is not type(b):
            return False
        if isinstance(a, float) and math.isnan(a):
            if not math.isnan(b):
                return False
        elif a != b:
            return False
    return True


table_inputs = st.integers(min_value=0, max_value=40).flatmap(
    lambda rows: st.tuples(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=rows, max_size=rows),
        st.lists(
            # NaN exercises the hashed-encoding fallback, where every NaN row
            # must form its own group exactly like the oracle's dict keys.
            st.sampled_from([0.0, -0.5, 1.25, 7.5, 100.0, float("nan")]),
            min_size=rows,
            max_size=rows,
        ),
        st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=rows, max_size=rows),
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=rows,
            max_size=rows,
        ),
        st.lists(st.booleans(), min_size=rows, max_size=rows),
    )
)

group_column_choices = st.sampled_from(
    [("i",), ("f",), ("c",), ("i", "c"), ("f", "i"), ("c", "f", "i")]
)


@settings(max_examples=120, deadline=None)
@given(inputs=table_inputs, group_columns=group_column_choices)
def test_factorize_matches_legacy_bytewise(inputs, group_columns):
    ints, floats, objects, measures, mask_bits = inputs
    table = build_table(ints, floats, objects, measures)
    mask = np.asarray(mask_bits, dtype=bool)

    expected = oracles.iter_groups(table, mask, group_columns)
    grouped = factorize(table, mask, group_columns)

    if grouped is None:
        assert expected == []
        return

    assert grouped.num_groups == len(expected)
    for group, (expected_key, expected_mask) in enumerate(expected):
        # keys_match also checks Python value types (int vs float matters).
        assert keys_match(grouped.keys[group], expected_key)
        assert np.array_equal(grouped.group_mask(group, len(table)), expected_mask)
        assert list(grouped.group_indices(group)) == list(np.flatnonzero(expected_mask))


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    inputs=table_inputs,
    join=st.booleans(),
    group_columns=group_column_choices,
)
def test_factorize_over_a_table_history_matches_legacy(data, inputs, join, group_columns):
    table = histories.table_history(data, build_table(*inputs[:4]), "c", join)
    mask = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table))), dtype=bool
    )
    expected = oracles.iter_groups(table, mask, group_columns)
    grouped = factorize(table, mask, group_columns)
    if grouped is None:
        assert expected == []
        return
    assert grouped.num_groups == len(expected)
    for group, (expected_key, expected_mask) in enumerate(expected):
        assert keys_match(grouped.keys[group], expected_key)
        assert np.array_equal(grouped.group_mask(group, len(table)), expected_mask)


@settings(max_examples=60, deadline=None)
@given(inputs=table_inputs, group_columns=group_column_choices)
def test_executor_vectorized_equals_legacy_bytewise(inputs, group_columns):
    ints, floats, objects, measures, mask_bits = inputs
    table = build_table(ints, floats, objects, measures)
    catalog = Catalog.of([table], fact_tables=["t"])
    group_by = ", ".join(group_columns)
    query = parse_query(
        "SELECT "
        f"{group_by}, SUM(m), AVG(m), COUNT(*), MIN(m), MAX(m), FREQ(*) "
        f"FROM t GROUP BY {group_by}"
    )
    result = ExactExecutor(catalog).execute(query)
    expected = oracles.execute(catalog, query)

    assert len(result.rows) == len(expected.rows)
    for new_row, old_row in zip(result.rows, expected.rows):
        assert keys_match(new_row.group_values, old_row.group_values)
        assert new_row.aggregates.keys() == old_row.aggregates.keys()
        for name in new_row.aggregates:
            new_value = new_row.aggregates[name]
            old_value = old_row.aggregates[name]
            # Byte-identical, not approximately equal.
            assert np.float64(new_value).tobytes() == np.float64(old_value).tobytes()


def same_bytes(left, right) -> bool:
    """Equal floats down to the bit (None and ints compare plainly)."""
    if isinstance(left, float) or isinstance(right, float):
        return np.float64(left).tobytes() == np.float64(right).tobytes()
    return left == right


@settings(max_examples=80, deadline=None)
@given(
    inputs=table_inputs,
    group_columns=st.sampled_from([(), ("i",), ("c",), ("f", "i")]),
    population=st.integers(min_value=1, max_value=10_000),
)
def test_estimates_equal_the_cell_oracle_bytewise(inputs, group_columns, population):
    # Small int groups give empty, one-row and constant-valued segments: every
    # fallback branch of the CLT formulas.
    table = build_table(*inputs[:4])
    select = ", ".join(group_columns + ("",)) if group_columns else ""
    group_by = f" GROUP BY {', '.join(group_columns)}" if group_columns else ""
    query = parse_query(
        f"SELECT {select}SUM(m), AVG(i), SUM(i), COUNT(*), MIN(m), MAX(i), FREQ(*) "
        f"FROM t WHERE i >= -1{group_by}"
    )
    rows = len(table)
    answer = estimate_answer(query, table, rows, rows, population, 0.0)
    expected = oracles.estimate(query, table, rows, population)

    assert len(answer.rows) == len(expected)
    for new_row, old_row in zip(answer.rows, expected):
        assert keys_match(new_row.group_values, old_row.group_values)
        assert new_row.estimates.keys() == old_row.estimates.keys()
        for name, new in new_row.estimates.items():
            old = old_row.estimates[name]
            assert same_bytes(new.value, old.value) and same_bytes(new.error, old.error)
            for field in fields(old.internal):
                assert same_bytes(
                    getattr(new.internal, field.name), getattr(old.internal, field.name)
                ), (name, field.name)
