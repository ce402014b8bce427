"""Decomposition of supported queries into query snippets (Section 2.3).

A query snippet is a supported query with a single aggregate function, no
other projected columns, and no group-by clause; its answer is a single scalar
(Definition 1).  A query with multiple aggregates and/or a group-by clause is
converted into one snippet per (aggregate function, group value) combination,
with each group value added as an equality predicate (Figure 3).

The group values themselves come from the result set produced by the AQP
engine, so decomposition takes the observed group rows as input.  The number
of generated snippets per query is bounded by ``N_max`` (1,000 by default);
improved answers are computed only for those snippets (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.sqlparser import ast

GroupValue = Union[int, float, str]


@dataclass(frozen=True)
class SnippetSpec:
    """One query snippet produced by decomposition.

    Attributes
    ----------
    aggregate:
        The single aggregate function of this snippet.
    table / joins:
        Copied from the parent query.
    predicate:
        The parent WHERE predicate conjoined with equality predicates for this
        snippet's group-by values.
    group_values:
        Mapping from group-by column name to the pinned value (empty for
        queries without group-by).
    aggregate_index / group_index:
        Position of the aggregate in the select list and of the group row in
        the AQP result, used to map improved answers back onto result rows.
    """

    aggregate: ast.Aggregate
    table: str
    joins: tuple[ast.JoinClause, ...]
    predicate: ast.Predicate | None
    group_values: tuple[tuple[str, GroupValue], ...] = ()
    aggregate_index: int = 0
    group_index: int = 0


def _group_equality_predicates(
    group_by: Sequence[ast.ColumnRef], values: Sequence[GroupValue]
) -> list[ast.Predicate]:
    """Equality predicates pinning each group-by column to its value."""
    predicates: list[ast.Predicate] = []
    for column, value in zip(group_by, values):
        predicates.append(
            ast.Comparison(
                left=ast.ColumnRef(name=column.name, table=column.table),
                op=ast.ComparisonOp.EQ,
                right=ast.Literal(value),
            )
        )
    return predicates


def decompose_query(
    query: ast.Query,
    group_rows: Sequence[Sequence[GroupValue]] | None = None,
    max_snippets: int = 1_000,
) -> list[SnippetSpec]:
    """Decompose ``query`` into snippet specifications.

    Parameters
    ----------
    query:
        A parsed, *supported* query (the caller is responsible for checking).
    group_rows:
        The group-value tuples present in the AQP answer, one per result row,
        each aligned with ``query.group_by``.  Required when the query has a
        group-by clause; ignored otherwise.
    max_snippets:
        ``N_max`` -- the bound on generated snippets per query.  Snippets are
        generated for aggregate functions in select-list order and group rows
        in result order until the bound is reached.

    Returns
    -------
    list[SnippetSpec]
        At most ``max_snippets`` snippet specifications.
    """
    if max_snippets <= 0:
        raise ValueError("max_snippets must be positive")

    aggregates = [
        (index, item.expression)
        for index, item in enumerate(query.select)
        if item.is_aggregate
    ]
    if not aggregates:
        return []

    base_predicates: list[ast.Predicate] = []
    if query.where is not None:
        base_predicates.append(query.where)

    specs: list[SnippetSpec] = []
    if not query.group_by:
        for aggregate_index, aggregate in aggregates:
            if len(specs) >= max_snippets:
                break
            specs.append(
                SnippetSpec(
                    aggregate=aggregate,
                    table=query.table,
                    joins=query.joins,
                    predicate=ast.conjunction(list(base_predicates)),
                    group_values=(),
                    aggregate_index=aggregate_index,
                    group_index=0,
                )
            )
        return specs

    rows = list(group_rows or [])
    for group_index, values in enumerate(rows):
        if len(values) != len(query.group_by):
            raise ValueError(
                f"group row {group_index} has {len(values)} values, expected "
                f"{len(query.group_by)}"
            )
        group_predicates = _group_equality_predicates(query.group_by, values)
        group_values = tuple(
            (column.name, value) for column, value in zip(query.group_by, values)
        )
        for aggregate_index, aggregate in aggregates:
            if len(specs) >= max_snippets:
                return specs
            specs.append(
                SnippetSpec(
                    aggregate=aggregate,
                    table=query.table,
                    joins=query.joins,
                    predicate=ast.conjunction(base_predicates + group_predicates),
                    group_values=group_values,
                    aggregate_index=aggregate_index,
                    group_index=group_index,
                )
            )
    return specs

