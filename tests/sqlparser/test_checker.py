"""Unit tests for the supported-query checker (Section 2.2 / Table 3)."""

import pytest

from repro.sqlparser.checker import CheckResult, QueryTypeChecker, check_sql
from repro.sqlparser.parser import parse_query


@pytest.fixture()
def checker():
    return QueryTypeChecker()


def check(checker, sql):
    return checker.check(parse_query(sql))


class TestSupportedQueries:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT AVG(revenue) FROM sales",
            "SELECT COUNT(*) FROM sales WHERE week >= 1 AND week <= 10",
            "SELECT SUM(revenue * (1 - discount)) FROM sales WHERE region = 'east'",
            "SELECT region, AVG(price), COUNT(*) FROM sales GROUP BY region",
            "SELECT region, SUM(revenue) FROM sales JOIN dim ON k = k "
            "WHERE week BETWEEN 1 AND 5 GROUP BY region",
            "SELECT region, SUM(revenue) FROM sales GROUP BY region HAVING sum_revenue > 10",
            "SELECT COUNT(*) FROM sales WHERE region IN ('a', 'b') AND week >= 3",
            "SELECT FREQ(*) FROM sales WHERE week = 2",
        ],
    )
    def test_supported(self, checker, sql):
        result = check(checker, sql)
        assert result.supported, result.reasons
        assert result.has_aggregate
        assert bool(result) is True


class TestUnsupportedQueries:
    @pytest.mark.parametrize(
        "sql, expected_fragment",
        [
            ("SELECT MIN(price) FROM sales", "unsupported aggregate MIN"),
            ("SELECT MAX(price) FROM sales", "unsupported aggregate MAX"),
            ("SELECT COUNT(DISTINCT region) FROM sales", "DISTINCT"),
            ("SELECT week FROM sales WHERE week >= 1", "no aggregate"),
            ("SELECT AVG(revenue) FROM sales WHERE week = 1 OR week = 5", "disjunction"),
            ("SELECT AVG(revenue) FROM sales WHERE NOT week = 1", "negation"),
            ("SELECT COUNT(*) FROM sales WHERE brand LIKE 'b%'", "LIKE"),
            ("SELECT COUNT(*) FROM sales WHERE region NOT IN ('a')", "NOT IN"),
            (
                "SELECT AVG(revenue) FROM sales WHERE price >= (SELECT AVG(price) FROM sales)",
                "nested",
            ),
            ("SELECT COUNT(*) FROM (SELECT week FROM sales) t", "nested"),
            ("SELECT region, COUNT(*) FROM sales", "not in GROUP BY"),
            (
                "SELECT COUNT(*) FROM sales WHERE week IN (SELECT week FROM other)",
                "nested",
            ),
        ],
    )
    def test_unsupported_with_reason(self, checker, sql, expected_fragment):
        result = check(checker, sql)
        assert not result.supported
        assert any(expected_fragment in reason for reason in result.reasons), result.reasons

    def test_multiple_reasons_are_deduplicated(self, checker):
        result = check(
            checker,
            "SELECT MIN(a), MIN(b) FROM t WHERE x = 1 OR y = 2",
        )
        assert result.reasons.count("unsupported aggregate MIN") == 1


class TestCheckSql:
    def test_parse_error_reported_not_raised(self):
        result = check_sql("THIS IS NOT SQL")
        assert not result.supported
        assert any("parse error" in reason for reason in result.reasons)

    def test_supported_passthrough(self):
        assert check_sql("SELECT COUNT(*) FROM t").supported

    def test_check_result_is_falsy_when_unsupported(self):
        result = CheckResult(supported=False, reasons=("x",))
        assert not result
