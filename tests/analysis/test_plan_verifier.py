"""Tests for the plan verifier: classifications, verdicts, query checks."""

import pytest

from repro.analysis import (
    MigrationVerdict,
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
from repro.operators.base import Operator
from repro.operators.join import HashJoin
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    DistinctNode,
    Field,
    JoinNode,
    PhysicalBuilder,
    ProjectNode,
    Query,
    SelectNode,
    Source,
    UnionNode,
)

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

    def test_declared_migration_profile_wins(self):
        class SelfDescribed(Operator):
            migration_profile = "stateless"

            def _on_element(self, element, port):
                self._emit(element)

        from repro.analysis import classify_operator

        classification, diagnostic = classify_operator(SelfDescribed())
        assert classification.kind == "stateless"
        assert diagnostic is None

    def test_bad_declared_profile_is_an_error(self):
        class Misdeclared(Operator):
            migration_profile = "quantum"

            def _on_element(self, element, port):
                self._emit(element)

        from repro.analysis import classify_operator

        _, diagnostic = classify_operator(Misdeclared())
        assert diagnostic is not None and diagnostic.code == "CLS001"

    def test_undrainable_join_is_warned(self):
        class Undrainable(Operator):
            migration_profile = "join"

            def _on_element(self, element, port):
                self._emit(element)

        from repro.analysis import classify_operator
        from repro.analysis.plan_verifier import (
            WARNING,
            _checkpoint_state_diagnostic,
        )

        classification, diagnostic = classify_operator(Undrainable())
        assert classification.kind == "join"
        assert diagnostic is None
        diagnostic = _checkpoint_state_diagnostic(Undrainable(), classification)
        assert diagnostic is not None and diagnostic.code == "CKP001"
        assert diagnostic.severity == WARNING
        assert "lacks both state_of_port and absorb_state" in diagnostic.message

    def test_stateful_operator_without_state_hooks_is_not_checkpointable(self):
        class Opaque(Operator):
            migration_profile = "general"

            def _on_element(self, element, port):
                self._emit(element)

            def state_of_port(self, port):
                return []

        from repro.analysis import classify_operator
        from repro.analysis.plan_verifier import (
            WARNING,
            _checkpoint_state_diagnostic,
        )

        classification, _ = classify_operator(Opaque())
        diagnostic = _checkpoint_state_diagnostic(Opaque(), classification)
        assert diagnostic is not None and diagnostic.code == "CKP001"
        assert diagnostic.severity == WARNING
        assert "checkpointable" in diagnostic.message

    def test_asymmetric_state_hooks_are_flagged(self):
        class DrainOnly(Operator):
            migration_profile = "general"

            def _on_element(self, element, port):
                self._emit(element)

            def state_of_port(self, port):
                return []

        from repro.analysis import classify_operator
        from repro.analysis.plan_verifier import _checkpoint_state_diagnostic

        classification, _ = classify_operator(DrainOnly())
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
        # The real columnar join materialises its struct-of-arrays state
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
