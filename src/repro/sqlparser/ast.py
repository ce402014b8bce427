"""Typed abstract syntax tree for the supported SQL subset.

The AST intentionally models a little *more* than Verdict supports (MIN/MAX,
OR, NOT, LIKE, DISTINCT) so that the query type checker can classify real
traces into supported and unsupported queries the way Table 3 of the paper
does, instead of failing at parse time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union


# --------------------------------------------------------------------------- #
# Scalar expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ColumnRef:
    """Reference to a column by name (optionally qualified as table.column)."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A literal value: number or string."""

    value: Union[int, float, str]


@dataclass(frozen=True)
class Star:
    """The ``*`` argument of COUNT(*) / FREQ(*)."""


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic over scalar expressions, used for derived measure attributes
    such as ``revenue * (1 - discount)``."""

    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


Expression = Union[ColumnRef, Literal, BinaryOp, Star]


def expression_columns(expr: Expression) -> list[ColumnRef]:
    """All column references inside a scalar expression, in appearance order."""
    if isinstance(expr, ColumnRef):
        return [expr]
    if isinstance(expr, BinaryOp):
        return expression_columns(expr.left) + expression_columns(expr.right)
    return []


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal`` (or derived expression vs literal)."""

    left: Expression
    op: ComparisonOp
    right: Expression


@dataclass(frozen=True)
class InPredicate:
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: tuple[Union[int, float, str], ...]
    negated: bool = False


@dataclass(frozen=True)
class BetweenPredicate:
    """``column BETWEEN low AND high`` (inclusive on both ends)."""

    column: ColumnRef
    low: Union[int, float, str]
    high: Union[int, float, str]


@dataclass(frozen=True)
class LikePredicate:
    """``column LIKE pattern`` -- parsed but unsupported by Verdict."""

    column: ColumnRef
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class And:
    """Conjunction of predicates."""

    predicates: tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    """Disjunction of predicates -- parsed but unsupported by Verdict."""

    predicates: tuple["Predicate", ...]


@dataclass(frozen=True)
class Not:
    """Negation -- parsed but unsupported by Verdict."""

    predicate: "Predicate"


Predicate = Union[Comparison, InPredicate, BetweenPredicate, LikePredicate, And, Or, Not]


def iter_predicates(predicate: Predicate | None) -> Iterator[Predicate]:
    """Yield every node in a predicate tree (pre-order)."""
    if predicate is None:
        return
    yield predicate
    if isinstance(predicate, And) or isinstance(predicate, Or):
        for child in predicate.predicates:
            yield from iter_predicates(child)
    elif isinstance(predicate, Not):
        yield from iter_predicates(predicate.predicate)


def conjunction(predicates: list[Predicate]) -> Predicate | None:
    """Combine a list of predicates into a single conjunctive predicate."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    flat: list[Predicate] = []
    for predicate in predicates:
        if isinstance(predicate, And):
            flat.extend(predicate.predicates)
        else:
            flat.append(predicate)
    return And(tuple(flat))


def predicate_columns(predicate: Predicate | None) -> list[str]:
    """Names of columns referenced anywhere in a predicate tree."""
    names: list[str] = []
    for node in iter_predicates(predicate):
        if isinstance(node, Comparison):
            names.extend(c.name for c in expression_columns(node.left))
            names.extend(c.name for c in expression_columns(node.right))
        elif isinstance(node, (InPredicate, BetweenPredicate, LikePredicate)):
            names.append(node.column.name)
    return names


# --------------------------------------------------------------------------- #
# Aggregates and queries
# --------------------------------------------------------------------------- #


class AggregateFunction(enum.Enum):
    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    # FREQ(*) is Verdict's internal aggregate (Section 2.3); exposing it in the
    # AST lets the internal snippet representation reuse the same types.
    FREQ = "FREQ"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate function call, e.g. ``SUM(revenue * discount)``."""

    function: AggregateFunction
    argument: Expression
    distinct: bool = False

    @property
    def is_star(self) -> bool:
        return isinstance(self.argument, Star)


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list: an aggregate or a plain column."""

    expression: Union[Aggregate, Expression]
    alias: str | None = None

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expression, Aggregate)

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        expr = self.expression
        if isinstance(expr, Aggregate):
            if isinstance(expr.argument, Star):
                return f"{expr.function.value.lower()}_star"
            columns = expression_columns(expr.argument)
            suffix = columns[0].name if columns else "expr"
            return f"{expr.function.value.lower()}_{suffix}"
        if isinstance(expr, ColumnRef):
            return expr.name
        return "expr"


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON left_column = right_column`` (foreign-key equi-join)."""

    table: str
    left_column: ColumnRef
    right_column: ColumnRef


@dataclass(frozen=True)
class Query:
    """A parsed SQL query.

    ``has_subquery`` is set by the parser when it detects a nested SELECT in
    the FROM or WHERE clause; nested queries are outside Verdict's supported
    class (Section 2.2) but must still be representable so traces can be
    classified.
    """

    select: tuple[SelectItem, ...]
    table: str
    joins: tuple[JoinClause, ...] = ()
    where: Predicate | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Predicate | None = None
    has_subquery: bool = False
    text: str | None = field(default=None, compare=False)

    @property
    def aggregates(self) -> list[Aggregate]:
        """All aggregate expressions in the select list."""
        return [item.expression for item in self.select if item.is_aggregate]

    @property
    def non_aggregate_items(self) -> list[SelectItem]:
        """Select-list items that are not aggregates (projected group columns)."""
        return [item for item in self.select if not item.is_aggregate]

    @property
    def group_by_names(self) -> list[str]:
        return [c.name for c in self.group_by]
