"""Recursive-descent parser for the supported SQL dialect.

The parser builds :class:`repro.sqlparser.ast.Query` objects.  It accepts a
slightly larger language than Verdict supports (MIN/MAX, OR, NOT, LIKE,
DISTINCT aggregates, nested SELECTs in FROM/WHERE) so that real traces can be
*classified* by :class:`repro.sqlparser.checker.QueryTypeChecker` rather than
rejected outright.  ORDER BY and LIMIT clauses are parsed and discarded since
they do not affect aggregate answers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from repro.errors import SQLSyntaxError
from repro.sqlparser import ast
from repro.sqlparser.lexer import Token, TokenKind, tokenize

#: Bounds of the :func:`parse_query` memo: distinct texts retained, and the
#: longest text worth retaining (a multi-megabyte statement is parsed each
#: time rather than pinned in memory as a key).
PARSE_MEMO_ENTRIES = 1024
PARSE_MEMO_MAX_TEXT = 8192

_AGGREGATE_KEYWORDS = {"SUM", "COUNT", "AVG", "MIN", "MAX", "FREQ"}
_COMPARISON_OPS = {
    "=": ast.ComparisonOp.EQ,
    "<>": ast.ComparisonOp.NE,
    "<": ast.ComparisonOp.LT,
    "<=": ast.ComparisonOp.LE,
    ">": ast.ComparisonOp.GT,
    ">=": ast.ComparisonOp.GE,
}


class _Parser:
    """Stateful recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        self.has_subquery = False

    # ------------------------------------------------------------- primitives

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def expect_keyword(self, *names: str) -> Token:
        token = self.current
        if token.is_keyword(*names):
            return self.advance()
        raise SQLSyntaxError(
            f"expected {' or '.join(names)}, found {token.value!r}",
            position=token.position,
        )

    def expect_kind(self, kind: TokenKind) -> Token:
        token = self.current
        if token.kind is kind:
            return self.advance()
        raise SQLSyntaxError(
            f"expected {kind.value}, found {token.value!r}", position=token.position
        )

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def accept_kind(self, kind: TokenKind) -> bool:
        if self.current.kind is kind:
            self.advance()
            return True
        return False

    # ------------------------------------------------------------ entry point

    def parse(self) -> ast.Query:
        query = self._parse_select()
        self.accept_kind(TokenKind.SEMICOLON)
        if self.current.kind is not TokenKind.EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                position=self.current.position,
            )
        return query

    # ------------------------------------------------------------- select body

    def _parse_select(self) -> ast.Query:
        self.expect_keyword("SELECT")
        select_items = self._parse_select_list()
        self.expect_keyword("FROM")
        table = self._parse_table_ref()
        joins = self._parse_joins()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_predicate()
        group_by: tuple[ast.ColumnRef, ...] = ()
        having = None
        if self.current.is_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            group_by = tuple(self._parse_column_list())
        if self.accept_keyword("HAVING"):
            having = self._parse_predicate()
        self._skip_order_and_limit()
        return ast.Query(
            select=tuple(select_items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            has_subquery=self.has_subquery,
            text=self.text,
        )

    def _parse_select_list(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_kind(TokenKind.COMMA):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self._parse_select_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = str(self.expect_kind(TokenKind.IDENTIFIER).value)
        elif self.current.kind is TokenKind.IDENTIFIER:
            alias = str(self.advance().value)
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_select_expression(self) -> Union[ast.Aggregate, ast.Expression]:
        token = self.current
        if token.kind is TokenKind.KEYWORD and str(token.value) in _AGGREGATE_KEYWORDS:
            return self._parse_aggregate()
        return self._parse_expression()

    def _parse_aggregate(self) -> ast.Aggregate:
        function_token = self.advance()
        function = ast.AggregateFunction(str(function_token.value))
        self.expect_kind(TokenKind.LPAREN)
        distinct = self.accept_keyword("DISTINCT")
        if self.current.kind is TokenKind.STAR:
            self.advance()
            argument: ast.Expression = ast.Star()
        else:
            argument = self._parse_expression()
        self.expect_kind(TokenKind.RPAREN)
        return ast.Aggregate(function=function, argument=argument, distinct=distinct)

    # ------------------------------------------------------- scalar expressions

    def _parse_expression(self) -> ast.Expression:
        left = self._parse_term()
        while self.current.kind is TokenKind.OPERATOR and self.current.value in ("+", "-"):
            op = str(self.advance().value)
            right = self._parse_term()
            left = ast.BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_term(self) -> ast.Expression:
        left = self._parse_factor()
        while (
            self.current.kind is TokenKind.OPERATOR and self.current.value == "/"
        ) or self.current.kind is TokenKind.STAR:
            if self.current.kind is TokenKind.STAR:
                op = "*"
                self.advance()
            else:
                op = str(self.advance().value)
            right = self._parse_factor()
            left = ast.BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_factor(self) -> ast.Expression:
        token = self.current
        # Aggregate keywords not followed by "(" are ordinary column names
        # (real schemas do have columns called count, min, or max).
        if (
            token.kind is TokenKind.KEYWORD
            and str(token.value) in _AGGREGATE_KEYWORDS
            and self.tokens[self.position + 1].kind is not TokenKind.LPAREN
        ):
            self.advance()
            return ast.ColumnRef(name=str(token.value).lower())
        if token.kind is TokenKind.LPAREN:
            self.advance()
            if self.current.is_keyword("SELECT"):
                self._consume_subquery()
                return ast.Literal(0)
            expression = self._parse_expression()
            self.expect_kind(TokenKind.RPAREN)
            return expression
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.Literal(token.value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(str(token.value))
        if token.kind is TokenKind.OPERATOR and token.value == "-":
            self.advance()
            inner = self._parse_factor()
            if isinstance(inner, ast.Literal) and isinstance(inner.value, (int, float)):
                return ast.Literal(-inner.value)
            return ast.BinaryOp(op="-", left=ast.Literal(0), right=inner)
        if token.kind is TokenKind.IDENTIFIER:
            return self._parse_column_ref()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} in expression", position=token.position
        )

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = str(self.expect_kind(TokenKind.IDENTIFIER).value)
        if self.current.kind is TokenKind.DOT:
            self.advance()
            second = str(self.expect_kind(TokenKind.IDENTIFIER).value)
            return ast.ColumnRef(name=second, table=first)
        return ast.ColumnRef(name=first)

    def _parse_column_list(self) -> list[ast.ColumnRef]:
        columns = [self._parse_column_ref()]
        while self.accept_kind(TokenKind.COMMA):
            columns.append(self._parse_column_ref())
        return columns

    # ------------------------------------------------------------- from / join

    def _parse_table_ref(self) -> str:
        if self.current.kind is TokenKind.LPAREN:
            self.advance()
            if self.current.is_keyword("SELECT"):
                self._consume_subquery()
                # optional alias after a derived table
                self.accept_keyword("AS")
                if self.current.kind is TokenKind.IDENTIFIER:
                    return str(self.advance().value)
                return "<subquery>"
            raise SQLSyntaxError(
                "expected SELECT in derived table", position=self.current.position
            )
        name = str(self.expect_kind(TokenKind.IDENTIFIER).value)
        # optional alias (ignored: the executor resolves unqualified names)
        if self.accept_keyword("AS"):
            self.expect_kind(TokenKind.IDENTIFIER)
        elif self.current.kind is TokenKind.IDENTIFIER:
            self.advance()
        return name

    def _parse_joins(self) -> list[ast.JoinClause]:
        joins: list[ast.JoinClause] = []
        while True:
            if self.current.is_keyword("INNER", "LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
            elif self.current.is_keyword("JOIN"):
                self.advance()
            else:
                break
            table = str(self.expect_kind(TokenKind.IDENTIFIER).value)
            if self.accept_keyword("AS"):
                self.expect_kind(TokenKind.IDENTIFIER)
            elif self.current.kind is TokenKind.IDENTIFIER:
                self.advance()
            self.expect_keyword("ON")
            left = self._parse_column_ref()
            op_token = self.expect_kind(TokenKind.OPERATOR)
            if op_token.value != "=":
                raise SQLSyntaxError(
                    "only equi-joins are supported in ON clauses",
                    position=op_token.position,
                )
            right = self._parse_column_ref()
            joins.append(ast.JoinClause(table=table, left_column=left, right_column=right))
        return joins

    # -------------------------------------------------------------- predicates

    def _parse_predicate(self) -> ast.Predicate:
        return self._parse_or()

    def _parse_or(self) -> ast.Predicate:
        parts = [self._parse_and()]
        while self.accept_keyword("OR"):
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return ast.Or(tuple(parts))

    def _parse_and(self) -> ast.Predicate:
        parts = [self._parse_not()]
        while self.accept_keyword("AND"):
            parts.append(self._parse_not())
        if len(parts) == 1:
            return parts[0]
        return ast.And(tuple(parts))

    def _parse_not(self) -> ast.Predicate:
        if self.accept_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_primary_predicate()

    def _parse_primary_predicate(self) -> ast.Predicate:
        if self.current.kind is TokenKind.LPAREN:
            # could be a parenthesised predicate or a scalar subexpression;
            # try predicate first by lookahead on SELECT.
            saved = self.position
            self.advance()
            if self.current.is_keyword("SELECT"):
                self._consume_subquery()
                return ast.Comparison(
                    left=ast.Literal(0), op=ast.ComparisonOp.EQ, right=ast.Literal(0)
                )
            self.position = saved
            # Parenthesised predicate: parse it as a full predicate.
            self.advance()
            inner = self._parse_predicate()
            self.expect_kind(TokenKind.RPAREN)
            return inner
        left = self._parse_expression()
        token = self.current
        if token.is_keyword("NOT"):
            self.advance()
            if self.current.is_keyword("IN"):
                return self._parse_in(left, negated=True)
            if self.current.is_keyword("LIKE"):
                return self._parse_like(left, negated=True)
            raise SQLSyntaxError(
                "expected IN or LIKE after NOT", position=self.current.position
            )
        if token.is_keyword("IN"):
            return self._parse_in(left, negated=False)
        if token.is_keyword("BETWEEN"):
            return self._parse_between(left)
        if token.is_keyword("LIKE"):
            return self._parse_like(left, negated=False)
        if token.kind is TokenKind.OPERATOR and str(token.value) in _COMPARISON_OPS:
            op = _COMPARISON_OPS[str(self.advance().value)]
            if self.current.kind is TokenKind.LPAREN:
                saved = self.position
                self.advance()
                if self.current.is_keyword("SELECT"):
                    self._consume_subquery()
                    return ast.Comparison(left=left, op=op, right=ast.Literal(0))
                self.position = saved
            right = self._parse_expression()
            return ast.Comparison(left=left, op=op, right=right)
        raise SQLSyntaxError(
            f"expected a predicate operator, found {token.value!r}",
            position=token.position,
        )

    def _require_column(self, expr: ast.Expression, context: str) -> ast.ColumnRef:
        if isinstance(expr, ast.ColumnRef):
            return expr
        raise SQLSyntaxError(f"{context} requires a column reference")

    def _parse_in(self, left: ast.Expression, negated: bool) -> ast.Predicate:
        column = self._require_column(left, "IN predicate")
        self.expect_keyword("IN")
        self.expect_kind(TokenKind.LPAREN)
        if self.current.is_keyword("SELECT"):
            self._consume_subquery(already_open=True)
            return ast.InPredicate(column=column, values=(), negated=negated)
        values: list[Union[int, float, str]] = []
        while True:
            token = self.current
            if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
                self.advance()
                values.append(token.value if token.kind is TokenKind.NUMBER else str(token.value))
            else:
                raise SQLSyntaxError(
                    f"expected literal in IN list, found {token.value!r}",
                    position=token.position,
                )
            if self.accept_kind(TokenKind.COMMA):
                continue
            break
        self.expect_kind(TokenKind.RPAREN)
        return ast.InPredicate(column=column, values=tuple(values), negated=negated)

    def _parse_between(self, left: ast.Expression) -> ast.Predicate:
        column = self._require_column(left, "BETWEEN predicate")
        self.expect_keyword("BETWEEN")
        low = self._parse_literal_value()
        self.expect_keyword("AND")
        high = self._parse_literal_value()
        return ast.BetweenPredicate(column=column, low=low, high=high)

    def _parse_like(self, left: ast.Expression, negated: bool) -> ast.Predicate:
        column = self._require_column(left, "LIKE predicate")
        self.expect_keyword("LIKE")
        pattern = str(self.expect_kind(TokenKind.STRING).value)
        return ast.LikePredicate(column=column, pattern=pattern, negated=negated)

    def _parse_literal_value(self) -> Union[int, float, str]:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return token.value
        if token.kind is TokenKind.STRING:
            self.advance()
            return str(token.value)
        if token.kind is TokenKind.OPERATOR and token.value == "-":
            self.advance()
            number = self.expect_kind(TokenKind.NUMBER)
            return -number.value
        raise SQLSyntaxError(
            f"expected literal, found {token.value!r}", position=token.position
        )

    # --------------------------------------------------------------- subqueries

    def _consume_subquery(self, already_open: bool = False) -> None:
        """Consume a nested SELECT up to its closing parenthesis.

        The opening parenthesis has already been consumed by the caller; the
        SELECT keyword is the current token.  Nested queries are not executed
        by this reproduction -- they only need to be detected so the checker
        can classify the query as unsupported.
        """
        self.has_subquery = True
        depth = 0 if already_open else 0
        # We are inside one open parenthesis already.
        depth += 1
        while depth > 0:
            token = self.advance()
            if token.kind is TokenKind.EOF:
                raise SQLSyntaxError("unterminated subquery", position=token.position)
            if token.kind is TokenKind.LPAREN:
                depth += 1
            elif token.kind is TokenKind.RPAREN:
                depth -= 1

    # ------------------------------------------------------------ order / limit

    def _skip_order_and_limit(self) -> None:
        if self.current.is_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            self._parse_column_ref()
            self.accept_keyword("ASC", "DESC")
            while self.accept_kind(TokenKind.COMMA):
                self._parse_column_ref()
                self.accept_keyword("ASC", "DESC")
        if self.current.is_keyword("LIMIT"):
            self.advance()
            self.expect_kind(TokenKind.NUMBER)


@lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def _parse_memoised(text: str) -> ast.Query:
    return _Parser(text).parse()


def parse_query(text: str) -> ast.Query:
    """Parse a SQL string into a :class:`repro.sqlparser.ast.Query`.

    Memoised on the text (least recently used of ``PARSE_MEMO_ENTRIES``
    evicted; texts over ``PARSE_MEMO_MAX_TEXT`` characters bypass the memo):
    every AST node is a frozen dataclass over tuples, so the front door's
    pre-admission parse, the engine's check and EXPLAIN share one object
    across threads.  A failed parse is never retained -- it raises afresh
    on every call.

    Raises
    ------
    SQLSyntaxError
        If the text cannot be tokenised or parsed.
    """
    if len(text) > PARSE_MEMO_MAX_TEXT:
        return _Parser(text).parse()
    return _parse_memoised(text)
