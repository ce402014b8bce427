"""Unit tests for the SQL parser."""

import sys
import threading

import pytest

from repro.errors import SQLSyntaxError
from repro.sqlparser import ast, parser
from repro.sqlparser.parser import parse_query


class TestSelectList:
    def test_single_aggregate(self):
        query = parse_query("SELECT AVG(revenue) FROM sales")
        assert query.table == "sales"
        assert len(query.select) == 1
        aggregate = query.select[0].expression
        assert isinstance(aggregate, ast.Aggregate)
        assert aggregate.function is ast.AggregateFunction.AVG
        assert isinstance(aggregate.argument, ast.ColumnRef)

    def test_count_star_and_alias(self):
        query = parse_query("SELECT COUNT(*) AS n FROM sales")
        item = query.select[0]
        assert item.alias == "n"
        assert item.output_name == "n"
        assert item.expression.is_star

    def test_multiple_aggregates_and_group_columns(self):
        query = parse_query(
            "SELECT region, AVG(price), SUM(revenue) FROM sales GROUP BY region"
        )
        assert len(query.select) == 3
        assert len(query.aggregates) == 2
        assert query.group_by_names == ["region"]
        assert [item.output_name for item in query.select] == [
            "region",
            "avg_price",
            "sum_revenue",
        ]

    def test_derived_aggregate_argument(self):
        query = parse_query("SELECT SUM(revenue * (1 - discount)) FROM sales")
        argument = query.select[0].expression.argument
        assert isinstance(argument, ast.BinaryOp)
        assert argument.op == "*"
        assert isinstance(argument.right, ast.BinaryOp)

    def test_distinct_aggregate(self):
        query = parse_query("SELECT COUNT(DISTINCT region) FROM sales")
        assert query.select[0].expression.distinct

    def test_min_max_parse(self):
        query = parse_query("SELECT MIN(price), MAX(price) FROM sales")
        functions = [a.function for a in query.aggregates]
        assert functions == [ast.AggregateFunction.MIN, ast.AggregateFunction.MAX]


class TestWhere:
    def test_conjunctive_ranges(self):
        query = parse_query(
            "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 10 AND region = 'east'"
        )
        assert isinstance(query.where, ast.And)
        assert len(query.where.predicates) == 3

    def test_between_and_in(self):
        query = parse_query(
            "SELECT COUNT(*) FROM sales WHERE week BETWEEN 2 AND 9 AND region IN ('a', 'b')"
        )
        predicates = query.where.predicates
        assert isinstance(predicates[0], ast.BetweenPredicate)
        assert predicates[0].low == 2 and predicates[0].high == 9
        assert isinstance(predicates[1], ast.InPredicate)
        assert predicates[1].values == ("a", "b")

    def test_or_not_like(self):
        query = parse_query(
            "SELECT COUNT(*) FROM sales WHERE week = 1 OR NOT region LIKE 'ea%'"
        )
        assert isinstance(query.where, ast.Or)
        assert isinstance(query.where.predicates[1], ast.Not)

    def test_not_in(self):
        query = parse_query("SELECT COUNT(*) FROM sales WHERE region NOT IN ('a')")
        predicate = query.where
        assert isinstance(predicate, ast.InPredicate)
        assert predicate.negated

    def test_negative_literals(self):
        query = parse_query("SELECT COUNT(*) FROM sales WHERE balance >= -10.5")
        assert query.where.right.value == pytest.approx(-10.5)

    def test_parenthesised_predicates(self):
        query = parse_query(
            "SELECT COUNT(*) FROM sales WHERE (week >= 1 AND week <= 5) AND region = 'a'"
        )
        assert isinstance(query.where, ast.And)

    def test_qualified_columns(self):
        query = parse_query("SELECT AVG(s.revenue) FROM sales s WHERE s.week >= 2")
        argument = query.select[0].expression.argument
        assert argument.table == "s"
        assert argument.qualified == "s.revenue"


class TestJoinsGroupByHaving:
    def test_join_clause(self):
        query = parse_query(
            "SELECT region, SUM(amount) FROM orders JOIN stores ON store_id = store_id "
            "GROUP BY region"
        )
        assert len(query.joins) == 1
        assert query.joins[0].table == "stores"

    def test_multiple_joins(self):
        query = parse_query(
            "SELECT COUNT(*) FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey"
        )
        assert [j.table for j in query.joins] == ["orders", "customer"]

    def test_inner_and_left_join_keywords(self):
        query = parse_query(
            "SELECT COUNT(*) FROM a INNER JOIN b ON x = y LEFT OUTER JOIN c ON u = v"
        )
        assert [j.table for j in query.joins] == ["b", "c"]

    def test_non_equi_join_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT COUNT(*) FROM a JOIN b ON x < y")

    def test_having(self):
        query = parse_query(
            "SELECT region, SUM(revenue) FROM sales GROUP BY region HAVING sum_revenue > 10"
        )
        assert query.having is not None

    def test_order_by_and_limit_are_ignored(self):
        query = parse_query(
            "SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY region DESC LIMIT 10"
        )
        assert query.group_by_names == ["region"]

    def test_trailing_semicolon(self):
        query = parse_query("SELECT COUNT(*) FROM sales;")
        assert query.table == "sales"


class TestSubqueries:
    def test_subquery_in_where_detected(self):
        query = parse_query(
            "SELECT AVG(revenue) FROM sales WHERE price >= (SELECT AVG(price) FROM sales)"
        )
        assert query.has_subquery

    def test_subquery_in_from_detected(self):
        query = parse_query("SELECT COUNT(*) FROM (SELECT week FROM sales) t")
        assert query.has_subquery

    def test_in_subquery_detected(self):
        query = parse_query(
            "SELECT COUNT(*) FROM sales WHERE week IN (SELECT week FROM other)"
        )
        assert query.has_subquery

    def test_flat_query_has_no_subquery(self):
        query = parse_query("SELECT COUNT(*) FROM sales WHERE week = 1")
        assert not query.has_subquery


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT COUNT(*)")

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT COUNT(*) FROM sales EXTRA nonsense ,")

    def test_bad_in_list(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("SELECT COUNT(*) FROM t WHERE a IN (b)")

    def test_query_hashable_and_comparable(self):
        first = parse_query("SELECT COUNT(*) FROM sales WHERE week = 1")
        second = parse_query("select count(*) from sales where week = 1")
        assert first == second
        assert hash(first) == hash(second)
        different = parse_query("SELECT COUNT(*) FROM sales WHERE week = 2")
        assert first != different


class TestMemo:
    """``parse_query`` memoises on the text; the AST is frozen, so sharing is safe."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        parser._parse_memoised.cache_clear()
        yield
        parser._parse_memoised.cache_clear()

    @staticmethod
    def retained() -> int:
        return parser._parse_memoised.cache_info().currsize

    def test_same_text_returns_the_identical_object(self):
        sql = "SELECT AVG(revenue) FROM sales WHERE week >= 3 AND week <= 31"
        first = parse_query(sql)
        assert parse_query(sql) is first
        # The memo keys on the text, not on what it means.
        respaced = parse_query(sql.replace(" ", "  "))
        assert respaced == first and respaced is not first

    def test_a_syntax_error_raises_every_time_and_is_not_retained(self):
        for _ in range(3):
            with pytest.raises(SQLSyntaxError):
                parse_query("SELEC COUNT(*) FROM sales")
        assert self.retained() == 0

    def test_least_recently_used_text_is_evicted_at_the_bound(self):
        def text(index):
            return f"SELECT COUNT(*) FROM sales WHERE week = {index}"

        oldest = parse_query(text(0))
        second = parse_query(text(1))
        for index in range(2, parser.PARSE_MEMO_ENTRIES):
            parse_query(text(index))
        assert self.retained() == parser.PARSE_MEMO_ENTRIES
        assert parse_query(text(0)) is oldest  # a hit, and now the most recent
        parse_query(text(parser.PARSE_MEMO_ENTRIES))  # one over: evicts text(1)
        assert self.retained() == parser.PARSE_MEMO_ENTRIES
        assert parse_query(text(0)) is oldest
        reparsed = parse_query(text(1))
        assert reparsed == second and reparsed is not second

    def test_a_text_over_the_length_cap_parses_but_is_not_retained(self):
        values = ", ".join(str(value) for value in range(2_000))
        sql = f"SELECT COUNT(*) FROM sales WHERE week IN ({values})"
        assert len(sql) > parser.PARSE_MEMO_MAX_TEXT
        first, second = parse_query(sql), parse_query(sql)
        assert first == second and first is not second
        assert len(first.where.values) == 2_000
        assert self.retained() == 0
        at_cap = "SELECT COUNT(*) FROM sales".ljust(parser.PARSE_MEMO_MAX_TEXT)
        assert parse_query(at_cap) is parse_query(at_cap)

    def test_eight_threads_hammering_get_equal_asts(self):
        texts = [f"SELECT SUM(revenue) FROM sales WHERE week <= {i}" for i in range(40)]
        expected = [parser._Parser(text).parse() for text in texts]
        failures: list[str] = []
        start = threading.Barrier(8)

        def hammer(offset: int) -> None:
            start.wait(timeout=10)
            for round_ in range(50):
                for index in range(len(texts)):
                    pick = (index + offset * 5 + round_) % len(texts)
                    if parse_query(texts[pick]) != expected[pick]:
                        failures.append(texts[pick])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert self.retained() == len(texts)
