"""Tests for DOT export of logical plans."""

from repro.plans import (
    Comparison,
    DistinctNode,
    Field,
    JoinNode,
    Source,
    plan_to_dot,
)

A = Source("A", ["x"])
B = Source("B", ["y"])


def plan():
    return DistinctNode(JoinNode(A, B, Comparison("=", Field("A.x"), Field("B.y"))))


class TestPlanToDot:
    def test_contains_all_nodes_and_edges(self):
        dot = plan_to_dot(plan())
        assert dot.startswith("digraph")
        assert dot.count("->") == 3  # A->join, B->join, join->distinct
        assert "distinct" in dot
        assert 'label="A"' in dot and 'label="B"' in dot

    def test_labels_escaped(self):
        from repro.plans import Literal, SelectNode

        node = SelectNode(A, Comparison("=", Field("A.x"), Literal('he"llo')))
        dot = plan_to_dot(node)
        assert '\\"' in dot

    def test_labels_name_join_condition_and_aggregate(self):
        from repro.cql import Catalog, compile_query

        catalog = Catalog({"bids": ("item", "price"), "sales": ("item", "amount")})
        query = compile_query(
            "SELECT b.item, COUNT(*) AS n FROM bids [RANGE 500] b, "
            "sales [RANGE 900] s WHERE b.item = s.item GROUP BY b.item",
            catalog,
        )
        dot = plan_to_dot(query.plan)
        assert "join[(b.item = s.item)]" in dot
        assert "aggregate[count(*) by ['b.item']]" in dot
