"""Verifier smoke tests over fixture plans, CQL queries and the CLI."""

import json

import pytest

from repro.analysis import verify_box, verify_plan, verify_query
from repro.analysis.__main__ import main
from repro.analysis.plan_verifier import ERROR, GENMIG
from repro.cql import Catalog, compile_query
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

FIXTURE_PLANS = [
    A,
    SelectNode(A, Comparison(">", Field("A.x"), Literal(5))),
    ProjectNode(A, [(Field("A.x"), "v")]),
    JoinNode(A, B, AB),
    JoinNode(JoinNode(A, B, AB), C, Comparison("=", Field("B.y"), Field("C.z"))),
    DistinctNode(JoinNode(A, B, AB)),
    JoinNode(DistinctNode(A), DistinctNode(B), AB),
    UnionNode(ProjectNode(A, [(Field("A.x"), "v")]), ProjectNode(B, [(Field("B.y"), "v")])),
    AggregateNode(A, [AggregateSpec("count", "A.x")]),
    AggregateNode(JoinNode(A, B, AB), [AggregateSpec("sum", "A.x")], group_by=["B.y"]),
]

FIGURE2_CQL = (
    "SELECT DISTINCT a.x FROM a [RANGE 10], b [RANGE 20] WHERE a.x = b.y"
)
CATALOG_ARGS = ["--source", "a=x", "--source", "b=y"]


class TestFixturePlans:
    @pytest.mark.parametrize(
        "plan", FIXTURE_PLANS, ids=lambda p: p.signature()
    )
    def test_fixture_plan_verifies_clean(self, plan):
        verdict = verify_plan(plan)
        assert verdict.ok, verdict.report()
        # GenMig is unconditionally sound — no plan may be refused it.
        assert verdict.strategies[GENMIG].safe

    @pytest.mark.parametrize(
        "plan", FIXTURE_PLANS, ids=lambda p: p.signature()
    )
    def test_profile_matches_verify_box(self, plan):
        box = PhysicalBuilder().build(plan)
        assert verify_plan(plan).profile == verify_box(box).profile

    def test_cql_query_verifies(self):
        catalog = Catalog({"a": ("x",), "b": ("y",)})
        query = compile_query(FIGURE2_CQL, catalog)
        verdict = verify_query(query)
        assert verdict.ok


class TestCLI:
    def test_clean_query_exits_zero(self, capsys):
        assert main([FIGURE2_CQL] + CATALOG_ARGS) == 0
        out = capsys.readouterr().out
        assert "strategies:" in out

    def test_json_output(self, capsys):
        assert main([FIGURE2_CQL] + CATALOG_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategies"]["genmig"] is True

    def test_unsafe_strategy_exits_one(self, capsys):
        # distinct above a join is PT-unsafe once pushed down; but even the
        # un-pushed Figure 2 query is not join-only, so PT must be refused.
        code = main(
            [FIGURE2_CQL] + CATALOG_ARGS + ["--strategy", "parallel-track"]
        )
        assert code == 1
        assert "unsafe" in capsys.readouterr().err

    def test_safe_strategy_exits_zero(self, capsys):
        assert main([FIGURE2_CQL] + CATALOG_ARGS + ["--strategy", "genmig"]) == 0

    def test_query_file_and_dot_output(self, tmp_path, capsys):
        query_file = tmp_path / "q.cql"
        query_file.write_text(FIGURE2_CQL, encoding="utf-8")
        dot_file = tmp_path / "plan.dot"
        assert main([str(query_file)] + CATALOG_ARGS + ["--dot", str(dot_file)]) == 0
        assert "digraph" in dot_file.read_text(encoding="utf-8")

    def test_unknown_source_is_usage_error(self, capsys):
        assert main([FIGURE2_CQL, "--source", "a=x"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_source_spec_is_usage_error(self, capsys):
        assert main([FIGURE2_CQL, "--source", "nonsense"]) == 2
