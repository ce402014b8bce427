"""Query type checker: is a query inside Verdict's supported class?

Section 2.2 of the paper defines the supported class: flat aggregate queries
with SUM / COUNT / AVG aggregates (possibly over derived attributes),
foreign-key joins between a fact table and dimension tables, conjunctive
equality / inequality / IN predicates over stored attributes, and optional
group-by / having clauses.  MIN / MAX aggregates, disjunctions, negations,
textual LIKE filters, DISTINCT aggregates, and nested queries are unsupported:
Verdict passes them straight through to the AQP engine.

The checker is purely syntactic (it does not need a catalog) and reports the
list of reasons a query is unsupported, which the Table 3 generality
experiment aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sqlparser import ast


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one query."""

    supported: bool
    reasons: tuple[str, ...] = ()
    has_aggregate: bool = False

    def __bool__(self) -> bool:
        return self.supported


_SUPPORTED_AGGREGATES = {
    ast.AggregateFunction.SUM,
    ast.AggregateFunction.COUNT,
    ast.AggregateFunction.AVG,
    ast.AggregateFunction.FREQ,
}


class QueryTypeChecker:
    """Classifies parsed queries as supported or unsupported.

    HAVING clauses are supported: Verdict applies them to the result set
    returned by the AQP engine (Section 2.2).
    """

    def check(self, query: ast.Query) -> CheckResult:
        """Return the :class:`CheckResult` for ``query``."""
        reasons: list[str] = []
        aggregates = query.aggregates
        has_aggregate = bool(aggregates)

        if query.has_subquery:
            reasons.append("nested query")
        if not aggregates:
            reasons.append("no aggregate function")

        for aggregate in aggregates:
            if aggregate.function not in _SUPPORTED_AGGREGATES:
                reasons.append(f"unsupported aggregate {aggregate.function.value}")
            if aggregate.distinct:
                reasons.append("DISTINCT aggregate")
            if aggregate.is_star and aggregate.function not in (
                ast.AggregateFunction.COUNT,
                ast.AggregateFunction.FREQ,
            ):
                reasons.append(
                    f"{aggregate.function.value}(*) is not a valid aggregate"
                )

        group_names = set(query.group_by_names)
        for item in query.non_aggregate_items:
            expression = item.expression
            if isinstance(expression, ast.ColumnRef):
                if expression.name not in group_names:
                    reasons.append(
                        f"projected column {expression.name!r} not in GROUP BY"
                    )
            else:
                reasons.append("non-aggregate select expression")

        reasons.extend(self._check_predicate(query.where, clause="WHERE"))

        # Duplicate reasons add no information.
        unique_reasons = tuple(dict.fromkeys(reasons))
        return CheckResult(
            supported=not unique_reasons,
            reasons=unique_reasons,
            has_aggregate=has_aggregate,
        )

    # ------------------------------------------------------------------ helpers

    def _check_predicate(self, predicate: ast.Predicate | None, clause: str) -> list[str]:
        if predicate is None:
            return []
        reasons: list[str] = []
        for node in ast.iter_predicates(predicate):
            if isinstance(node, ast.Or):
                reasons.append(f"disjunction in {clause} clause")
            elif isinstance(node, ast.Not):
                reasons.append(f"negation in {clause} clause")
            elif isinstance(node, ast.LikePredicate):
                reasons.append(f"textual LIKE filter in {clause} clause")
            elif isinstance(node, ast.InPredicate):
                if node.negated:
                    reasons.append(f"NOT IN predicate in {clause} clause")
                elif not node.values:
                    reasons.append(f"IN subquery in {clause} clause")
            elif isinstance(node, ast.Comparison):
                reasons.extend(self._check_comparison(node, clause))
        return reasons

    def _check_comparison(self, node: ast.Comparison, clause: str) -> list[str]:
        left_is_column = isinstance(node.left, ast.ColumnRef)
        right_is_column = isinstance(node.right, ast.ColumnRef)
        left_is_literal = isinstance(node.left, ast.Literal)
        right_is_literal = isinstance(node.right, ast.Literal)
        if left_is_column and right_is_literal:
            return []
        if right_is_column and left_is_literal:
            return []
        if left_is_literal and right_is_literal:
            # Placeholder comparisons produced when a scalar subquery was
            # consumed; the subquery reason is reported separately, but a
            # genuine constant comparison is also outside the supported class.
            return [f"constant comparison in {clause} clause"]
        return [f"unsupported comparison form in {clause} clause"]


def check_sql(text: str, checker: QueryTypeChecker | None = None) -> CheckResult:
    """Parse and check a SQL string in one call.

    Queries that fail to parse are reported as unsupported with a
    ``"parse error"`` reason rather than raising, which matches how a query
    trace classifier must behave.
    """
    from repro.errors import SQLSyntaxError
    from repro.sqlparser.parser import parse_query

    checker = checker or QueryTypeChecker()
    try:
        query = parse_query(text)
    except SQLSyntaxError as exc:
        return CheckResult(supported=False, reasons=(f"parse error: {exc}",))
    return checker.check(query)
