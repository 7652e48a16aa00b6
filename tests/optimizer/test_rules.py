"""Tests for the transformation rules (equivalence-preserving rewrites)."""

import random

import pytest

from helpers import probe_instants, run_query, windowed
from repro.analysis.oracle import RelationalOracle
from repro.optimizer import (
    JoinGraph,
    join_orders,
    push_down_distinct,
    push_down_selections,
)
from repro.plans import (
    Comparison,
    DistinctNode,
    Field,
    JoinNode,
    Literal,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
)
from repro.streams import timestamped_stream
from repro.temporal import first_divergence

A = Source("A", ["x"])
B = Source("B", ["y"])
C = Source("C", ["z"])


def three_way_join():
    return JoinNode(
        JoinNode(A, B, Comparison("=", Field("A.x"), Field("B.y"))),
        C,
        Comparison("=", Field("B.y"), Field("C.z")),
    )


def random_streams(seed=3):
    rng = random.Random(seed)
    return {
        name: timestamped_stream(
            [(rng.randint(0, 6), t) for t in range(off, 240, 4)], name=name
        )
        for name, off in (("A", 0), ("B", 1), ("C", 2))
    }


WINDOWS = {"A": 30, "B": 30, "C": 30}


def outputs_of(plan, streams):
    out, _ = run_query(streams, WINDOWS, PhysicalBuilder().build(plan))
    return out


def assert_plans_equivalent(original, rewritten):
    streams = random_streams()
    base = outputs_of(original, streams)
    alt = outputs_of(rewritten, streams)
    assert first_divergence(base, alt) is None


class TestSelectionPushdown:
    def test_single_source_conjunct_reaches_leaf(self):
        plan = SelectNode(three_way_join(), Comparison("<", Field("A.x"), Literal(4)))
        pushed = push_down_selections(plan)
        assert "join" in pushed.signature()
        assert pushed.signature().index("select") > pushed.signature().index("join")

    def test_cross_source_conjunct_stays_above_its_join(self):
        predicate = Comparison("<", Field("A.x"), Field("C.z"))
        plan = SelectNode(three_way_join(), predicate)
        pushed = push_down_selections(plan)
        # A.x and C.z only meet at the top join.
        assert pushed.signature().startswith("select")

    def test_pushdown_preserves_semantics(self):
        plan = SelectNode(three_way_join(), Comparison("<", Field("A.x"), Literal(4)))
        assert_plans_equivalent(plan, push_down_selections(plan))

    def test_pushdown_splits_conjunctions(self):
        from repro.plans import And

        plan = SelectNode(
            three_way_join(),
            And(
                Comparison("<", Field("A.x"), Literal(5)),
                Comparison(">", Field("C.z"), Literal(1)),
            ),
        )
        pushed = push_down_selections(plan)
        assert_plans_equivalent(plan, pushed)
        assert not pushed.signature().startswith("select")


class TestDistinctPushdown:
    def test_figure2_rule_shape(self):
        plan = DistinctNode(JoinNode(A, B, Comparison("=", Field("A.x"), Field("B.y"))))
        pushed = push_down_distinct(plan)
        assert pushed.signature() == (
            "join[(A.x = B.y)](distinct(A), distinct(B))"
        )

    def test_figure2_rule_preserves_semantics(self):
        plan = DistinctNode(JoinNode(A, B, Comparison("=", Field("A.x"), Field("B.y"))))
        assert_plans_equivalent(plan, push_down_distinct(plan))

    def test_recursive_pushdown_through_join_tree(self):
        plan = DistinctNode(three_way_join())
        pushed = push_down_distinct(plan)
        assert pushed.signature().count("distinct") == 3
        assert_plans_equivalent(plan, pushed)

    def test_double_distinct_collapsed(self):
        plan = DistinctNode(DistinctNode(A))
        assert push_down_distinct(plan).signature() == "distinct(A)"


class TestJoinGraph:
    def test_extraction(self):
        graph = JoinGraph.extract(three_way_join())
        assert len(graph.leaves) == 3
        assert len(graph.predicates) == 2

    def test_extraction_rejects_non_joins(self):
        assert JoinGraph.extract(DistinctNode(A)) is None

    def test_left_deep_rebuild_in_original_order_keeps_schema(self):
        graph = JoinGraph.extract(three_way_join())
        rebuilt = graph.build([0, 1, 2])
        assert rebuilt.schema == three_way_join().schema

    def test_reordered_build_restores_schema_via_projection(self):
        graph = JoinGraph.extract(three_way_join())
        rebuilt = graph.build([2, 0, 1])
        assert rebuilt.schema == three_way_join().schema

    def test_invalid_order_rejected(self):
        graph = JoinGraph.extract(three_way_join())
        with pytest.raises(ValueError):
            graph.build([0, 0, 1])

    def test_unconnected_order_inserts_cross_product(self):
        graph = JoinGraph.extract(three_way_join())
        # A and C share no predicate: joining them first is a cross product.
        rebuilt = graph.build([0, 2, 1])
        assert "true" in rebuilt.signature()
        assert_plans_equivalent(three_way_join(), rebuilt)


class TestJoinOrders:
    def test_enumeration_count(self):
        assert len(join_orders(three_way_join())) == 6

    def test_non_join_plans_yield_nothing(self):
        assert join_orders(DistinctNode(A)) == []

    def test_limit_respected(self):
        assert len(join_orders(three_way_join(), limit=2)) == 2

    def test_all_orders_semantically_equivalent(self):
        streams = random_streams(seed=6)
        base = outputs_of(three_way_join(), streams)
        for alternative in join_orders(three_way_join()):
            alt = outputs_of(alternative, streams)
            assert first_divergence(base, alt) is None, alternative.signature()


class TestJoinOrdersThroughWrappers:
    def test_orders_found_under_projection_wrapper(self):
        """A schema-restoring projection from a previous reorder must not
        hide the join tree from later re-optimizations."""
        wrapped = JoinGraph.extract(three_way_join()).build([2, 0, 1])
        assert isinstance(wrapped, ProjectNode)  # reorder added a projection
        assert len(join_orders(wrapped)) == 6

    def test_orders_found_under_distinct_and_select(self):
        from repro.plans import Literal

        plan = DistinctNode(
            SelectNode(three_way_join(), Comparison("<", Field("A.x"), Literal(4)))
        )
        alternatives = join_orders(plan)
        assert len(alternatives) == 6
        for alternative in alternatives:
            assert alternative.signature().startswith("distinct(")
            assert alternative.schema == plan.schema

    def test_rewrapped_orders_semantically_equivalent(self):
        plan = DistinctNode(three_way_join())
        streams = random_streams(seed=9)
        base = outputs_of(plan, streams)
        for alternative in join_orders(plan)[:3]:
            assert first_divergence(base, outputs_of(alternative, streams)) is None
