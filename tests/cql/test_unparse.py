"""Tests for the CQL unparser and the EXPLAIN utility."""

import pytest

from repro.cql import parse, unparse
from repro.cql.unparse import unparse_expression


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM s [RANGE 10]",
            "SELECT DISTINCT a FROM s [RANGE 10]",
            "SELECT a, b AS bee FROM s [RANGE 10]",
            "SELECT COUNT(*) AS n, SUM(a) FROM s [RANGE 10] GROUP BY b",
            "SELECT * FROM a [RANGE 5] AS x, b [NOW] AS y WHERE x.k = y.k",
            "SELECT * FROM s [RANGE 10] WHERE a = 1 AND b = 2 OR c = 3",
            "SELECT * FROM s [RANGE 10] WHERE (a = 1 OR b = 2) AND c = 3",
            "SELECT * FROM s [RANGE 10] WHERE NOT a < b + 2 * c",
            "SELECT * FROM s [UNBOUNDED]",
            "SELECT * FROM s [ROWS 100]",
            "SELECT * FROM s [RANGE 10] WHERE name = 'alice'",
        ],
    )
    def test_round_trip_is_fixpoint(self, text):
        """parse -> unparse -> parse yields the identical AST."""
        statement = parse(text)
        rendered = unparse(statement)
        assert parse(rendered) == statement
        # And unparse is idempotent on its own output.
        assert unparse(parse(rendered)) == rendered

    def test_precedence_parentheses_minimal(self):
        statement = parse("SELECT * FROM s [RANGE 1] WHERE a = 1 AND b = 2 AND c = 3")
        assert "(" not in unparse(statement).split("WHERE")[1]

    def test_or_under_and_parenthesised(self):
        statement = parse("SELECT * FROM s [RANGE 1] WHERE (a = 1 OR b = 2) AND c = 3")
        rendered = unparse(statement)
        assert "(a = 1 OR b = 2)" in rendered

    def test_expression_unparse_standalone(self):
        statement = parse("SELECT a + b * 2 FROM s [RANGE 1]")
        assert unparse_expression(statement.items[0].expression) == "a + b * 2"
