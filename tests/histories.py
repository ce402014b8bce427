"""Tables built through a history of table operations, for equivalence tests.

A categorical column's codes and dictionary travel with every derived
table: ``take`` / ``filter`` gather codes and share a dictionary that may
hold values no remaining row carries, ``slice_rows`` shares both, ``append``
extends the dictionary, and a join gathers the dimension's codes.  The
property tests run every predicate and group-by over tables built this way,
so each of those paths is compared with the row-loop oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.db.catalog import Catalog
from repro.db.schema import ColumnKind, Schema, categorical_dimension, key, measure
from repro.db.table import Table
from repro.sqlparser.parser import parse_query

STEPS = ("take", "filter", "slice", "append_self", "append_fresh")

#: Values a fresh or appended table draws per column kind.  "zz" and "aaa"
#: never occur in the base tables, so an append grows the dictionary.
CATEGORIES = ["east", "west", "north", "sd", "zz", "aaa"]
MEASURES = [-4.5, 0.0, 1.25, 3.0, 88.0, float("nan")]


def fresh_columns(data: st.DataObject, schema: Schema, rows: int) -> dict[str, list]:
    """Drawn values for every column of ``schema``."""
    columns: dict[str, list] = {}
    for column in schema:
        if column.kind is ColumnKind.CATEGORY:
            element = st.sampled_from(CATEGORIES)
        elif column.kind is ColumnKind.INT:
            element = st.integers(min_value=0, max_value=9)
        else:
            element = st.sampled_from(MEASURES)
        columns[column.name] = data.draw(st.lists(element, min_size=rows, max_size=rows))
    return columns


def joined(data: st.DataObject, table: Table, categorical: str) -> Table:
    """``table`` with ``categorical`` moved to a dimension and joined back.

    The fact keeps a key into a dimension of drawn size whose rows carry the
    category; the join gathers the dimension's codes into the result.
    """
    values = table.column(categorical).tolist()
    dimension_values = list(dict.fromkeys(values)) + data.draw(
        st.lists(st.sampled_from(CATEGORIES), max_size=3)
    )
    order = data.draw(st.permutations(range(len(dimension_values))))
    dimension_values = [dimension_values[i] for i in order]
    keys = [dimension_values.index(value) for value in values]
    names = [name for name in table.column_names() if name != categorical]
    fact = Table(
        table.name,
        Schema.of([table.schema.column(name) for name in names] + [key("k")]),
        {**{name: table.column(name) for name in names}, "k": keys},
    )
    dimension = Table(
        "dim",
        Schema.of([key("k"), categorical_dimension(categorical), measure("weight")]),
        {
            "k": list(range(len(dimension_values))),
            categorical: dimension_values,
            "weight": [1.0] * len(dimension_values),
        },
    )
    catalog = Catalog.of([fact, dimension], fact_tables=[table.name])
    catalog.add_foreign_key(table.name, "k", "dim", "k")
    query = parse_query(f"SELECT COUNT(*) FROM {table.name} JOIN dim ON {table.name}.k = dim.k")
    return catalog.denormalize(query)


def table_history(data: st.DataObject, table: Table, categorical: str, join: bool) -> Table:
    """``table`` after an optional join and a drawn sequence of operations."""
    if join:
        table = joined(data, table, categorical)
    for step in data.draw(st.lists(st.sampled_from(STEPS), max_size=4)):
        rows = len(table)
        if step == "take":
            indices = data.draw(
                st.lists(st.integers(min_value=0, max_value=max(rows - 1, 0)), max_size=2 * rows)
            )
            table = table.take(np.asarray(indices if rows else [], dtype=np.int64))
        elif step == "filter":
            bits = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            table = table.filter(np.asarray(bits, dtype=bool))
        elif step == "slice":
            start = data.draw(st.integers(min_value=0, max_value=rows))
            stop = data.draw(st.integers(min_value=start, max_value=rows))
            table = table.slice_rows(start, stop)
        elif step == "append_self":
            table = table.append(table.take(np.arange(rows)[::-1]))
        else:
            rows = data.draw(st.integers(min_value=0, max_value=20))
            table = table.append(
                Table(table.name, table.schema, fresh_columns(data, table.schema, rows))
            )
    return table
