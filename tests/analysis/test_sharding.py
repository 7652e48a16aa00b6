"""The key-shardability analysis: provenance, routing, and SHD verdicts.

``classify_sharding`` decides whether a continuous query can run
hash-partitioned across shared-nothing shards, and when it can, derives
the per-source routing columns, the per-operator state key positions and
the merge discipline (eager vs strict).  These tests pin the verdicts
for every plan family the sharded executor supports, and the SHD001 /
SHD002 refusals for the plans it must reject — a wrong "shardable" here
would silently split one key's state across workers.
"""

import pytest

from repro.analysis import ShardingPlan, classify_sharding
from repro.analysis.plan_verifier import verify_query
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    Field,
    JoinNode,
    Literal,
    ProjectNode,
    SelectNode,
    Source,
)
from repro.plans.logical import DifferenceNode, DistinctNode, Query, UnionNode

A = Source("A", ["k", "v"])
B = Source("B", ["k"])
C = Source("C", ["k", "w"])


def equi_join():
    return JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))


def codes(plan: ShardingPlan):
    return sorted({d.code for d in plan.diagnostics})


class TestShardablePlans:
    def test_equi_join_routes_by_the_key_columns(self):
        plan = classify_sharding(equi_join())
        assert plan.shardable and plan.mode == "eager"
        assert plan.routing == {"A": 0, "B": 0}
        assert plan.state_keys["hash-join[A.k=B.k]"] == (0, 0)
        assert plan.root_key is None
        assert "shardable" in plan.explain()

    def test_join_tree_shares_one_key_class(self):
        tree = JoinNode(
            equi_join(), C, Comparison("=", Field("A.k"), Field("C.k"))
        )
        plan = classify_sharding(tree)
        assert plan.shardable
        assert plan.routing == {"A": 0, "B": 0, "C": 0}

    def test_stateless_chain_above_a_join_stays_eager(self):
        chain = SelectNode(
            ProjectNode(equi_join(), [(Field("A.v"), "v"), (Field("B.k"), "bk")]),
            Comparison(">", Field("v"), Literal(1)),
        )
        plan = classify_sharding(chain)
        assert plan.shardable and plan.mode == "eager"

    def test_grouped_aggregate_is_strict_with_a_root_key(self):
        node = AggregateNode(
            A, [AggregateSpec("sum", "A.v"), AggregateSpec("count")],
            group_by=["A.k"],
        )
        plan = classify_sharding(Query(node, {"A": 10}))
        assert plan.shardable and plan.mode == "strict"
        assert plan.routing == {"A": 0}
        # Output schema is group_by first: the group column is position 0.
        assert plan.root_key == 0

    def test_aggregate_grouped_by_the_join_key(self):
        node = AggregateNode(
            equi_join(), [AggregateSpec("count")], group_by=["A.k"]
        )
        plan = classify_sharding(node)
        assert plan.shardable and plan.mode == "strict"
        assert plan.routing == {"A": 0, "B": 0}

    def test_distinct_and_difference_are_strict(self):
        projected = ProjectNode(A, [(Field("A.k"), "k")])
        for node in (
            DistinctNode(projected),
            DifferenceNode(projected, B),
            DistinctNode(UnionNode(projected, B)),
        ):
            plan = classify_sharding(node)
            assert plan.shardable, type(node).__name__
            assert plan.mode == "strict"
            assert plan.root_key == 0

    def test_accepts_query_or_bare_plan(self):
        bare = classify_sharding(equi_join())
        wrapped = classify_sharding(Query(equi_join(), {"A": 5, "B": 5}))
        assert bare.routing == wrapped.routing


class TestGlobalOnlyPlans:
    def test_ungrouped_aggregate_is_shd001(self):
        plan = classify_sharding(AggregateNode(A, [AggregateSpec("count")]))
        assert not plan.shardable
        assert codes(plan) == ["SHD001"]

    def test_non_equi_join_is_shd001(self):
        plan = classify_sharding(
            JoinNode(A, B, Comparison("<", Field("A.k"), Field("B.k")))
        )
        assert not plan.shardable
        assert codes(plan) == ["SHD001"]

    def test_cross_join_is_shd001(self):
        plan = classify_sharding(JoinNode(A, B, None))
        assert not plan.shardable
        assert codes(plan) == ["SHD001"]

    def test_group_off_the_join_key_is_shd002(self):
        """Grouping a join by a non-key column: one group's rows can live
        on different shards, so finalisation would double-count."""
        node = AggregateNode(
            equi_join(), [AggregateSpec("count")], group_by=["A.v"]
        )
        plan = classify_sharding(node)
        assert not plan.shardable
        assert "SHD002" in codes(plan)

    def test_stateful_operator_below_the_root_is_shd002(self):
        node = JoinNode(
            DistinctNode(B), C, Comparison("=", Field("B.k"), Field("C.k"))
        )
        plan = classify_sharding(node)
        assert not plan.shardable
        assert "SHD002" in codes(plan)

    def test_computed_join_key_is_shd002(self):
        computed = ProjectNode(A, [(Literal(7), "c")])
        node = JoinNode(computed, B, Comparison("=", Field("c"), Field("B.k")))
        plan = classify_sharding(node)
        assert not plan.shardable
        assert "SHD002" in codes(plan)

    def test_explain_carries_the_first_refusal(self):
        plan = classify_sharding(AggregateNode(A, [AggregateSpec("count")]))
        assert plan.explain().startswith("SHD001")


class TestVerifierIntegration:
    """verify_query exposes the sharding verdict without polluting the
    migration-safety diagnostics: non-shardable is a capability, not an
    error."""

    def test_verdict_carries_the_sharding_plan(self):
        verdict = verify_query(Query(equi_join(), {"A": 10, "B": 10}))
        assert verdict.sharding is not None
        assert verdict.sharding.shardable
        assert "sharding:" in verdict.report()
        assert verdict.to_dict()["sharding"]["shardable"] is True

    def test_non_shardable_query_still_verifies_ok(self):
        query = Query(AggregateNode(A, [AggregateSpec("count")]), {"A": 10})
        verdict = verify_query(query)
        assert verdict.ok  # single-process execution is perfectly sound
        assert not verdict.sharding.shardable
        shd = verdict.to_dict()["sharding"]
        assert [d["code"] for d in shd["diagnostics"]] == ["SHD001"]
        # The SHD diagnostics stay out of the migration-safety list.
        assert not any(
            d.code.startswith("SHD") for d in verdict.all_diagnostics()
        )

class TestBoundaryCases:
    """SHD001/SHD002 boundaries the sharded executor depends on: a wrong
    "shardable" here splits one key's state (or one equivalence class of
    payloads) across workers."""

    def test_union_of_keyed_join_branches_shares_the_key_class(self):
        """A union whose branches are each keyed equi-joins is shardable:
        the routing map covers every source of both branches."""
        left = equi_join()
        right = JoinNode(
            C,
            Source("D", ["k"]),
            Comparison("=", Field("C.k"), Field("D.k")),
        )
        plan = classify_sharding(UnionNode(left, right))
        assert plan.shardable and plan.mode == "eager"
        assert plan.routing == {"A": 0, "B": 0, "C": 0, "D": 0}

    def test_union_of_strict_branches_is_refused(self):
        """Distinct *inside* each union branch is a stateful operator
        below the root: its finalisation cannot be merged across shards,
        so the union is SHD002 even though each branch alone shards."""
        plan = classify_sharding(
            UnionNode(DistinctNode(B), DistinctNode(Source("D", ["k"])))
        )
        assert not plan.shardable
        assert "SHD002" in codes(plan)

    def test_chain_above_a_keyed_join_still_shards(self):
        """A stateless select and projection chain above a keyed join
        must not change the sharding verdict, and a 2-shard run of the
        built box must match the single-process output byte for byte."""
        from repro.engine.sharded import ShardedExecutor
        from repro.engine.transport import LocalTransport
        from repro.plans.physical import PhysicalBuilder
        from repro.streams import CollectorSink
        from repro.temporal import element

        chain = ProjectNode(
            SelectNode(equi_join(), Comparison("=", Field("B.k"), Field("A.k"))),
            [(Field("A.v"), "v"), (Field("A.k"), "k")],
        )
        query = Query(chain, {"A": 12, "B": 12})
        plan = classify_sharding(query)
        assert plan.shardable and plan.mode == "eager"

        events = [
            ("A", element((0, 1), 0, 1)),
            ("B", element((0,), 1, 2)),
            ("A", element((1, 2), 2, 3)),
            ("B", element((1,), 3, 4)),
            ("B", element((0,), 4, 5)),
        ]

        def run_single():
            from repro.engine.executor import QueryExecutor
            from repro.streams import PhysicalStream

            executor = QueryExecutor(
                {name: PhysicalStream(name=name) for name in query.windows},
                dict(query.windows),
                PhysicalBuilder().build(query.plan),
            )
            sink = CollectorSink()
            executor.add_sink(sink)
            for source, item in events:
                executor.push(source, item)
            executor.finish()
            return [(e.payload, e.start, e.end) for e in sink.elements]

        sharded = ShardedExecutor(query, 2, transport=LocalTransport())
        sink = CollectorSink()
        sharded.add_sink(sink)
        for source, item in events:
            sharded.push(source, item)
        sharded.finish()
        sharded.close()
        merged = [(e.payload, e.start, e.end) for e in sink.elements]
        assert merged == run_single()

    def test_key_projected_away_above_the_join_is_fine(self):
        """A stateless projection that drops the key *above* the last
        stateful operator does not need the key: routing happens at the
        sources and the project is applied shard-locally."""
        keyless = ProjectNode(equi_join(), [(Field("A.v"), "v")])
        plan = classify_sharding(keyless)
        assert plan.shardable and plan.mode == "eager"
        assert plan.routing == {"A": 0, "B": 0}

    def test_key_projected_away_below_a_distinct_is_shd002(self):
        """The same projection *below* a distinct is refused: the strict
        finaliser needs the routing value in the payload to co-locate
        equal rows, and the project dropped it."""
        keyless = ProjectNode(equi_join(), [(Field("A.v"), "v")])
        plan = classify_sharding(DistinctNode(keyless))
        assert not plan.shardable
        assert "SHD002" in codes(plan)
        assert "routing value" in plan.explain()
