"""Tests for logical-to-physical compilation, checked against the
relational reference oracle (Definition 1)."""

import random

import pytest

from helpers import probe_instants, run_query, windowed
from repro.analysis.oracle import RelationalOracle
from repro.operators import Aggregate, DuplicateElimination, HashJoin, NestedLoopsJoin
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    DifferenceNode,
    DistinctNode,
    Field,
    JoinNode,
    Literal,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)
from repro.streams import timestamped_stream
from repro.temporal import snapshot


def random_streams(seed=17, n=80):
    rng = random.Random(seed)
    return {
        "A": timestamped_stream(
            [((rng.randint(0, 4), rng.randint(1, 9)), t) for t in range(0, n, 2)], name="A"
        ),
        "B": timestamped_stream(
            [((rng.randint(0, 4),), t) for t in range(1, n, 3)], name="B"
        ),
    }


A = Source("A", ["k", "v"])
B = Source("B", ["k"])
WINDOWS = {"A": 15, "B": 15}


def check_against_reference(plan, seed=17):
    streams = random_streams(seed)
    box = PhysicalBuilder().build(plan)
    out, _ = run_query(streams, WINDOWS, box)
    reference = RelationalOracle(
        {name: windowed(stream, WINDOWS[name]) for name, stream in streams.items()}
    )
    instants = probe_instants(
        windowed(streams["A"], 15), windowed(streams["B"], 15), out
    )
    divergence = reference.check(plan, out, instants)
    assert divergence is None, f"diverges from relational reference at t={divergence}"
    return out


class TestOperatorSelection:
    def test_equi_join_compiles_to_hash_join(self):
        plan = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        box = PhysicalBuilder().build(plan)
        assert isinstance(box.root, HashJoin)

    def test_theta_join_compiles_to_nested_loops(self):
        plan = JoinNode(A, B, Comparison("<", Field("A.k"), Field("B.k")))
        box = PhysicalBuilder().build(plan)
        assert isinstance(box.root, NestedLoopsJoin)

    def test_cross_join_compiles_to_nested_loops(self):
        box = PhysicalBuilder().build(JoinNode(A, B))
        assert isinstance(box.root, NestedLoopsJoin)

    def test_bare_source_gets_identity_root(self):
        box = PhysicalBuilder().build(A)
        assert box.taps["A"]
        assert box.root is box.taps["A"][0][0]

    def test_join_cost_knob_propagates(self):
        plan = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        box = PhysicalBuilder(join_cost=25).build(plan)
        assert box.root.predicate_cost == 25

    def test_taps_collect_all_source_ports(self):
        plan = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        box = PhysicalBuilder().build(plan)
        assert set(box.taps) == {"A", "B"}

    def test_label_defaults_to_signature(self):
        box = PhysicalBuilder().build(DistinctNode(A))
        assert "distinct" in box.label


class TestEndToEndSemantics:
    def test_select(self):
        check_against_reference(
            SelectNode(A, Comparison("<", Field("A.v"), Literal(5)))
        )

    def test_project(self):
        check_against_reference(ProjectNode(A, [(Field("A.k"), "k")]))

    def test_equi_join(self):
        check_against_reference(
            JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        )

    def test_theta_join(self):
        check_against_reference(
            JoinNode(A, B, Comparison("<", Field("A.k"), Field("B.k")))
        )

    def test_distinct(self):
        check_against_reference(DistinctNode(ProjectNode(A, [(Field("A.k"), "k")])))

    def test_distinct_over_join(self):
        check_against_reference(
            DistinctNode(JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k"))))
        )

    def test_union(self):
        check_against_reference(
            UnionNode(ProjectNode(A, [(Field("A.k"), "k")]), B)
        )

    def test_difference(self):
        check_against_reference(
            DifferenceNode(ProjectNode(A, [(Field("A.k"), "k")]), B)
        )

    def test_scalar_aggregate(self):
        check_against_reference(
            AggregateNode(A, [AggregateSpec("count"), AggregateSpec("sum", "A.v")])
        )

    def test_grouped_aggregate(self):
        check_against_reference(
            AggregateNode(
                A,
                [AggregateSpec("count"), AggregateSpec("max", "A.v")],
                group_by=["A.k"],
            )
        )

    def test_select_over_join_over_distinct(self):
        plan = SelectNode(
            JoinNode(DistinctNode(A), B, Comparison("=", Field("A.k"), Field("B.k"))),
            Comparison(">", Field("A.v"), Literal(2)),
        )
        check_against_reference(plan)

    def test_unknown_node_rejected(self):
        class Bogus:
            pass

        with pytest.raises(TypeError):
            PhysicalBuilder().build(Bogus())


class TestForceNestedLoops:
    def test_equi_join_forced_to_nested_loops(self):
        plan = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        box = PhysicalBuilder(force_nested_loops=True).build(plan)
        assert isinstance(box.root, NestedLoopsJoin)

    def test_forced_nested_loops_same_semantics(self):
        plan = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
        streams = random_streams(seed=18)
        hash_out, _ = run_query(streams, WINDOWS, PhysicalBuilder().build(plan))
        nl_out, _ = run_query(
            streams, WINDOWS, PhysicalBuilder(force_nested_loops=True).build(plan)
        )
        from repro.temporal import first_divergence

        assert first_divergence(hash_out, nl_out) is None
