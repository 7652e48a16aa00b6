"""Tests for box classification and automatic strategy selection."""

import itertools

import pytest

from repro.analysis import verify_box, verify_migration
from repro.analysis.plan_verifier import GENMIG, REFERENCE_POINT
from repro.core import (
    GenMig,
    ParallelTrack,
    ReferencePointGenMig,
    UnsoundPreferenceError,
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
from tests.analysis.test_fixture_plans import FIXTURE_PLANS

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
        assert verify_box(join_box()).profile == "join-only"

    def test_select_project_stay_join_only(self):
        assert verify_box(filtered_join_box()).profile == "join-only"

    def test_union_is_start_preserving(self):
        assert verify_box(union_box()).profile == "start-preserving"

    def test_aggregate_is_general(self):
        assert verify_box(aggregate_box()).profile == "general"

    def test_distinct_is_general(self):
        assert verify_box(distinct_box()).profile == "general"


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


class TestSingleRule:
    """``select_strategy(old, new)`` instantiates the verifier's verdict."""

    NAMES = {REFERENCE_POINT: ReferencePointGenMig.name, GENMIG: GenMig.name}

    @pytest.mark.parametrize(
        "old, new",
        list(itertools.product(FIXTURE_PLANS, repeat=2)),
        ids=lambda plan: plan.signature(),
    )
    def test_auto_choice_is_the_recommendation(self, old, new):
        old_box, new_box = build(old), build(new)
        recommended = verify_migration(old_box, new_box).recommended
        strategy = select_strategy(old_box, new_box)
        assert strategy.name == self.NAMES[recommended]
        assert strategy.selection_verdict.recommended == recommended
