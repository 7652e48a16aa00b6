"""Tests for the plan verifier: classifications, verdicts, query checks."""

import pytest

from repro.analysis import (
    MigrationVerdict,
    OperatorClassification,
    figure2_plans,
    verify_box,
    verify_migration,
    verify_plan,
    verify_query,
)
from repro.analysis.plan_verifier import (
    FLUID,
    GENMIG,
    PARALLEL_TRACK,
    REFERENCE_POINT,
)
from repro.core import select_strategy
from repro.engine import Box
from repro.operators import Select, equi_join
from repro.operators.base import Operator
from repro.operators.join import HashJoin
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
    Query,
    SelectNode,
    Source,
    UnionNode,
)
from repro.temporal.time import MAX_TIME

A = Source("A", ["x"])
B = Source("B", ["y"])
AB = Comparison("=", Field("A.x"), Field("B.y"))


def build(plan):
    return PhysicalBuilder().build(plan)


class TestFigure2:
    """The paper's Figure 2 counter-example as a lint failure."""

    def test_pushed_down_distinct_rejected_for_pt(self):
        _, pushed = figure2_plans()
        verdict = verify_plan(pushed)
        pt = verdict.strategies[PARALLEL_TRACK]
        assert not pt.safe
        # The diagnostic names the offending operator.
        assert any(d.operator == "distinct" for d in pt.diagnostics)
        assert any(d.code == "PT001" for d in pt.diagnostics)
        assert any("Figure 2" in d.message for d in pt.diagnostics)

    def test_pushed_down_distinct_accepted_for_genmig(self):
        _, pushed = figure2_plans()
        verdict = verify_plan(pushed)
        assert verdict.strategies[GENMIG].safe

    def test_physical_figure2_box_matches(self):
        _, pushed = figure2_plans()
        verdict = verify_box(build(pushed))
        assert not verdict.strategies[PARALLEL_TRACK].safe
        assert verdict.strategies[GENMIG].safe
        offenders = {
            d.operator
            for d in verdict.strategies[PARALLEL_TRACK].diagnostics
        }
        assert any("distinct" in (name or "") for name in offenders)


class TestProfiles:
    def test_join_only(self):
        verdict = verify_plan(JoinNode(A, B, AB))
        assert verdict.profile == "join-only"
        assert verdict.strategies[PARALLEL_TRACK].safe
        assert verdict.strategies[REFERENCE_POINT].safe

    def test_union_is_start_preserving(self):
        plan = UnionNode(
            ProjectNode(A, [(Field("A.x"), "v")]),
            ProjectNode(B, [(Field("B.y"), "v")]),
        )
        verdict = verify_plan(plan)
        assert verdict.profile == "start-preserving"
        assert verdict.strategies[REFERENCE_POINT].safe

    def test_aggregate_is_general(self):
        verdict = verify_plan(AggregateNode(A, [AggregateSpec("count", "A.x")]))
        assert verdict.profile == "general"
        assert not verdict.strategies[REFERENCE_POINT].safe
        assert verdict.strategies[GENMIG].safe

    def test_safe_strategies_ordering(self):
        verdict = verify_plan(JoinNode(A, B, AB))
        assert verdict.safe_strategies() == (
            PARALLEL_TRACK,
            REFERENCE_POINT,
            GENMIG,
            FLUID,
        )

    def test_equi_join_is_fluid_safe(self):
        verdict = verify_plan(JoinNode(A, B, AB))
        assert verdict.strategies[FLUID].safe

    def test_theta_join_rejected_for_fluid(self):
        theta = Comparison("<", Field("A.x"), Field("B.y"))
        verdict = verify_plan(JoinNode(A, B, theta))
        fluid = verdict.strategies[FLUID]
        assert not fluid.safe
        assert any(d.code == "FLM001" for d in fluid.diagnostics)

    def test_aggregate_rejected_for_fluid(self):
        verdict = verify_plan(AggregateNode(A, [AggregateSpec("count", "A.x")]))
        fluid = verdict.strategies[FLUID]
        assert not fluid.safe
        assert any(d.code == "FLM001" for d in fluid.diagnostics)
        assert any(d.code == "FLM002" for d in fluid.diagnostics)


class TestSchemaValidation:
    """The verifier re-validates schemas independently of constructors."""

    def test_valid_plan_is_clean(self):
        verdict = verify_plan(DistinctNode(JoinNode(A, B, AB)))
        assert verdict.ok
        assert verdict.diagnostics == ()

    def test_mutated_predicate_caught(self):
        # Constructors validate; a broken transformation rule mutating the
        # tree afterwards is exactly what the verifier exists to catch.
        node = SelectNode(A, Comparison(">", Field("A.x"), Field("A.x")))
        node.predicate = Comparison(">", Field("A.x"), Field("Z.missing"))
        verdict = verify_plan(node)
        assert not verdict.ok
        assert any(d.code == "SCH002" for d in verdict.diagnostics)

    def test_overridden_schema_mismatch_caught(self):
        class LyingProject(ProjectNode):
            @property
            def schema(self):
                return ("not", "the", "real", "schema")

        verdict = verify_plan(LyingProject(A, [(Field("A.x"), "x")]))
        assert any(d.code == "SCH001" for d in verdict.diagnostics)

    def test_mutated_join_overlap_caught(self):
        join = JoinNode(A, B, AB)
        join.right = Source("A", ["x"])  # duplicate column names
        verdict = verify_plan(join)
        assert any(d.code == "SCH004" for d in verdict.diagnostics)

    def test_broken_candidates_dropped_by_optimizer(self):
        from repro.optimizer.optimizer import ReOptimizer

        class LyingProject(ProjectNode):
            @property
            def schema(self):
                return ("not", "the", "real", "schema")

        # The broken plan survives the rewrite rules untouched (they only
        # rebuild nodes they recognise) but fails schema verification, so
        # the optimizer must refuse to consider it.
        plan = LyingProject(A, [(Field("A.x"), "x")])
        assert plan not in ReOptimizer().candidates(plan)


class TestEveryCodeFires:
    """Each schema, window, wiring and fluid code has a plan that raises
    it: plans mutated past their constructors' own checks, hand-wired
    boxes, and a fluid-hostile build."""

    @staticmethod
    def codes(verdict):
        return {d.code for d in verdict.all_diagnostics()}

    def test_sch003_projection_of_unknown_column(self):
        node = ProjectNode(A, [(Field("A.x"), "x")])
        node.outputs = ((Field("Z.q"), "x"),)
        assert "SCH003" in self.codes(verify_plan(node))

    def test_sch005_join_condition_on_unknown_column(self):
        join = JoinNode(A, B, AB)
        join.condition = Comparison("=", Field("A.x"), Field("Z.q"))
        assert "SCH005" in self.codes(verify_plan(join))

    def test_sch006_aggregate_and_group_by_on_unknown_columns(self):
        node = AggregateNode(A, [AggregateSpec("sum", "A.x")], group_by=["A.x"])
        node.aggregates = (AggregateSpec("sum", "Z.q"),)
        node.group_by = ("Z.r",)
        messages = [d.message for d in verify_plan(node).diagnostics if d.code == "SCH006"]
        assert len(messages) == 2

    def test_sch007_union_of_different_arity(self):
        union = UnionNode(A, B)
        union.right = JoinNode(Source("C", ["z"]), B, None)
        assert "SCH007" in self.codes(verify_plan(union))

    def test_win002_unbounded_window_warns(self):
        verdict = verify_query(Query(JoinNode(A, B, AB), {"A": MAX_TIME, "B": 10}))
        assert [d.severity for d in verdict.diagnostics if d.code == "WIN002"] == ["warning"]

    def test_box001_root_outside_the_operator_list(self):
        join, stray = equi_join(0, 0), Select(lambda p: True)
        box = Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=stray, operators=[join])
        assert "BOX001" in self.codes(verify_box(box))

    def test_box002_unfed_port_and_box003_doubly_fed_port(self):
        join = equi_join(0, 0)
        box = Box(taps={"A": [(join, 0)], "B": [(join, 0)]}, root=join)
        assert {"BOX002", "BOX003"} <= self.codes(verify_box(box))

    def test_flm003_tap_on_a_non_keyed_operator(self):
        plan = JoinNode(SelectNode(A, Comparison("<", Field("A.x"), Literal(4))), B, AB)
        verdict = verify_box(build(plan))
        assert not verdict.strategies[FLUID].safe
        assert "FLM003" in self.codes(verdict)


class TestQueryVerification:
    def test_windows_bound_recorded(self):
        # Every source has a finite window: no WIN diagnostic.
        query = Query(JoinNode(A, B, AB), {"A": 10, "B": 20})
        verdict = verify_query(query)
        assert verdict.ok
        assert not [d for d in verdict.diagnostics if d.code.startswith("WIN")]

    def test_missing_window_flagged(self):
        query = Query.__new__(Query)  # bypass the constructor's own check
        query.plan = JoinNode(A, B, AB)
        query.windows = {"A": 10}
        verdict = verify_query(query)
        assert any(d.code == "WIN001" for d in verdict.diagnostics)
        assert not verdict.ok


class TestMigrationVerdict:
    def test_start_preserving_pair_recommends_reference_point(self):
        verdict = verify_migration(build(JoinNode(A, B, AB)), build(JoinNode(A, B, AB)))
        assert isinstance(verdict, MigrationVerdict)
        assert verdict.recommended == REFERENCE_POINT
        assert "start-preserving" in verdict.reason

    def test_general_pair_recommends_genmig_naming_offenders(self):
        box = build(DistinctNode(JoinNode(A, B, AB)))
        verdict = verify_migration(box, build(DistinctNode(JoinNode(A, B, AB))))
        assert verdict.recommended == GENMIG
        assert "distinct" in verdict.reason


class TestSelectionVerdict:
    def test_select_strategy_attaches_verdict(self):
        strategy = select_strategy(build(JoinNode(A, B, AB)), build(JoinNode(A, B, AB)))
        verdict = strategy.selection_verdict
        assert verdict is not None
        assert verdict.strategies[REFERENCE_POINT].safe
        assert verdict.profiles == {"join-only"}


class TestOperatorClassification:
    def test_unknown_operator_degrades_to_general_with_warning(self):
        class Mystery(Operator):
            def _on_element(self, element, port):
                self._emit(element)

        from repro.analysis import classify_operator

        classification, diagnostic = classify_operator(Mystery(name="mystery"))
        assert classification.kind == "general"
        assert diagnostic is not None and diagnostic.code == "CLS002"

    def test_undrainable_join_is_warned(self):
        class Undrainable(Operator):
            def _on_element(self, element, port):
                self._emit(element)

        from repro.analysis.plan_verifier import (
            WARNING,
            _checkpoint_state_diagnostic,
        )

        classification = OperatorClassification.of_kind("undrainable", "join")
        diagnostic = _checkpoint_state_diagnostic(Undrainable(), classification)
        assert diagnostic is not None and diagnostic.code == "CKP001"
        assert diagnostic.severity == WARNING
        assert "lacks both state_of_port and absorb_state" in diagnostic.message

    def test_stateful_operator_without_state_hooks_is_not_checkpointable(self):
        class Opaque(Operator):
            def _on_element(self, element, port):
                self._emit(element)

            def state_of_port(self, port):
                return []

        from repro.analysis.plan_verifier import (
            WARNING,
            _checkpoint_state_diagnostic,
        )

        classification = OperatorClassification.of_kind("opaque", "general")
        diagnostic = _checkpoint_state_diagnostic(Opaque(), classification)
        assert diagnostic is not None and diagnostic.code == "CKP001"
        assert diagnostic.severity == WARNING
        assert "checkpointable" in diagnostic.message

    def test_asymmetric_state_hooks_are_flagged(self):
        class DrainOnly(Operator):
            def _on_element(self, element, port):
                self._emit(element)

            def state_of_port(self, port):
                return []

        from repro.analysis.plan_verifier import _checkpoint_state_diagnostic

        classification = OperatorClassification.of_kind("drain-only", "general")
        diagnostic = _checkpoint_state_diagnostic(DrainOnly(), classification)
        assert diagnostic is not None and diagnostic.code == "CKP001"
        assert "lacks absorb_state" in diagnostic.message

    def test_builtin_stateful_operators_are_checkpointable(self):
        # Every stateful operator the builder can emit drains and absorbs:
        # no CKP001 on any built plan.
        for node in (JoinNode(A, B, AB), DistinctNode(JoinNode(A, B, AB))):
            verdict = verify_box(build(node))
            assert not [d for d in verdict.diagnostics if d.code == "CKP001"]

    def test_columnar_hash_join_passes_drainability_check(self):
        # The real hash join materialises its bucketed state
        # through state_of_port/absorb_state, so no CKP001.
        box = build(JoinNode(A, B, AB))
        join = box.root
        assert isinstance(join, HashJoin)
        from repro.analysis import classify_operator
        from repro.analysis.plan_verifier import _checkpoint_state_diagnostic

        classification, diagnostic = classify_operator(join)
        assert classification.kind == "join"
        assert diagnostic is None
        assert _checkpoint_state_diagnostic(join, classification) is None
        assert verify_box(box).ok


class TestReporting:
    def test_report_and_dict_are_consistent(self):
        _, pushed = figure2_plans()
        verdict = verify_plan(pushed)
        report = verdict.report()
        payload = verdict.to_dict()
        assert "parallel-track" in report and "UNSAFE" in report
        assert payload["strategies"]["parallel-track"] is False
        assert payload["strategies"]["genmig"] is True
        assert any(d["code"] == "PT001" for d in payload["diagnostics"])

    def test_dot_annotations(self):
        from repro.plans import box_to_dot, plan_to_dot

        _, pushed = figure2_plans()
        dot = plan_to_dot(pushed)
        # The distinct subtree (and the join above it) is colored unsafe.
        assert dot.count('color="#c62828"') >= 3
        assert "tooltip=" in dot
        box_dot = box_to_dot(build(pushed))
        assert 'color="#c62828"' in box_dot
        assert "tooltip=" in box_dot
