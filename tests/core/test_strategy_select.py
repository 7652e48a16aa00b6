"""Tests for box classification and automatic strategy selection."""

import pytest

from repro.core import (
    GenMig,
    ParallelTrack,
    ReferencePointGenMig,
    UnsoundPreferenceError,
    classify_box,
    select_strategy,
)
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
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

A = Source("A", ["x"])
B = Source("B", ["y"])
C = Source("C", ["z"])

AB = Comparison("=", Field("A.x"), Field("B.y"))
BC = Comparison("=", Field("B.y"), Field("C.z"))


def build(plan):
    return PhysicalBuilder().build(plan)


def join_box():
    return build(JoinNode(JoinNode(A, B, AB), C, BC))


def filtered_join_box():
    plan = ProjectNode(
        SelectNode(JoinNode(A, B, AB), Comparison(">", Field("A.x"), Literal(1))),
        [(Field("A.x"), "x")],
    )
    return build(plan)


def union_box():
    return build(
        UnionNode(
            ProjectNode(A, [(Field("A.x"), "v")]),
            ProjectNode(B, [(Field("B.y"), "v")]),
        )
    )


def aggregate_box():
    return build(AggregateNode(A, [AggregateSpec("count", "A.x")], []))


def distinct_box():
    return build(DistinctNode(JoinNode(A, B, AB)))


class TestClassifyBox:
    def test_pure_join_plan(self):
        assert classify_box(join_box()) == "join-only"

    def test_select_project_stay_join_only(self):
        assert classify_box(filtered_join_box()) == "join-only"

    def test_union_is_start_preserving(self):
        assert classify_box(union_box()) == "start-preserving"

    def test_aggregate_is_general(self):
        assert classify_box(aggregate_box()) == "general"

    def test_distinct_is_general(self):
        assert classify_box(distinct_box()) == "general"


class TestSelectStrategy:
    def test_join_only_pair_gets_reference_point(self):
        strategy = select_strategy(join_box(), filtered_join_box())
        assert isinstance(strategy, ReferencePointGenMig)

    def test_union_pair_gets_reference_point(self):
        strategy = select_strategy(union_box(), union_box())
        assert isinstance(strategy, ReferencePointGenMig)

    def test_general_plan_falls_back_to_coalesce(self):
        strategy = select_strategy(aggregate_box(), aggregate_box())
        assert isinstance(strategy, GenMig)
        assert not isinstance(strategy, ReferencePointGenMig)

    def test_mixed_pair_falls_back_to_coalesce(self):
        strategy = select_strategy(join_box(), distinct_box())
        assert isinstance(strategy, GenMig)
        assert not isinstance(strategy, ReferencePointGenMig)

    def test_parallel_track_honoured_for_joins(self):
        strategy = select_strategy(join_box(), join_box(), prefer="parallel-track")
        assert isinstance(strategy, ParallelTrack)

    def test_parallel_track_refused_off_joins(self):
        with pytest.raises(UnsoundPreferenceError) as refusal:
            select_strategy(aggregate_box(), aggregate_box(), prefer="parallel-track")
        assert refusal.value.codes == ("PT001",)

    def test_reference_point_refused_on_general_plans(self):
        with pytest.raises(UnsoundPreferenceError) as refusal:
            select_strategy(join_box(), distinct_box(), prefer="reference-point")
        assert refusal.value.codes == ("RP001",)

    def test_reference_point_honoured_when_sound(self):
        strategy = select_strategy(join_box(), join_box(), prefer="reference-point")
        assert isinstance(strategy, ReferencePointGenMig)

    def test_coalesce_forced(self):
        strategy = select_strategy(join_box(), join_box(), prefer="coalesce")
        assert isinstance(strategy, GenMig)
        assert not isinstance(strategy, ReferencePointGenMig)

    def test_unknown_preference_rejected(self):
        with pytest.raises(ValueError, match="prefer"):
            select_strategy(join_box(), join_box(), prefer="teleport")
