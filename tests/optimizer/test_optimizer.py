"""Tests for the re-optimizer's migrate-or-keep decision."""

import copy

from repro.engine import StatisticsCatalog
from repro.optimizer import ReOptimizer
from repro.plans import (
    Comparison,
    DistinctNode,
    Field,
    JoinNode,
    Literal,
    Query,
    SelectNode,
    Source,
)

A = Source("A", ["x"])
B = Source("B", ["y"])
C = Source("C", ["z"])

AB = Comparison("=", Field("A.x"), Field("B.y"))
BC = Comparison("=", Field("B.y"), Field("C.z"))


def left_deep():
    return JoinNode(JoinNode(A, B, AB), C, BC)


def skewed_catalog():
    """A and B are fast, C is very slow: BC-first plans win."""
    stats = StatisticsCatalog()
    for t in range(0, 10000, 2):
        stats.rate_of("A").observe(t)
        stats.rate_of("B").observe(t)
    for t in range(0, 10000, 500):
        stats.rate_of("C").observe(t)
    return stats


def uniform_catalog():
    """A, B and C arrive at one rate: every join order costs the same."""
    stats = StatisticsCatalog()
    for t in range(0, 10000, 10):
        for name in ("A", "B", "C"):
            stats.rate_of(name).observe(t)
    return stats


class TestCandidates:
    def test_candidates_include_join_orders(self):
        optimizer = ReOptimizer()
        candidates = optimizer.candidates(left_deep())
        assert len(candidates) >= 6

    def test_candidates_deduplicated(self):
        optimizer = ReOptimizer()
        candidates = optimizer.candidates(left_deep())
        signatures = [plan.signature() for plan in candidates]
        assert len(signatures) == len(set(signatures))


class TestDecide:
    def test_better_plan_chosen_under_skew(self):
        optimizer = ReOptimizer(improvement_threshold=0.9)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), skewed_catalog())
        assert decision.migrate
        assert decision.best_cost < decision.current_cost

    def test_no_migration_for_small_wins(self):
        optimizer = ReOptimizer(improvement_threshold=0.0001)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), skewed_catalog())
        assert not decision.migrate

    def test_uniform_rates_keep_current_plan(self):
        stats = uniform_catalog()
        optimizer = ReOptimizer(improvement_threshold=0.8)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), stats)
        # All orders cost the same under uniform statistics.
        assert not decision.migrate


class TestDecideGuards:
    def test_decide_skips_on_cold_statistics(self):
        optimizer = ReOptimizer(improvement_threshold=0.9)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), StatisticsCatalog())
        assert not decision.migrate
        assert decision.reason == "cold-statistics"
        assert decision.candidates_considered == 0

    def test_decide_honours_min_observations(self):
        stats = StatisticsCatalog()
        for t in range(0, 100, 10):
            for name in ("A", "B", "C"):
                stats.rate_of(name).observe(t)
        optimizer = ReOptimizer(min_observations=50)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), stats)
        assert decision.reason == "cold-statistics"

    def test_decide_vetoes_unamortised_migration(self):
        optimizer = ReOptimizer(
            improvement_threshold=0.9,
            migration_cost_per_value=1e9,
            savings_horizon=1.0,
        )
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), skewed_catalog())
        assert not decision.migrate
        assert decision.reason == "migration-cost"
        assert decision.migration_cost > decision.projected_savings

    def test_migration_cost_disabled_by_default(self):
        optimizer = ReOptimizer(improvement_threshold=0.9)
        query = Query(left_deep(), {"A": 100, "B": 100, "C": 100})
        decision = optimizer.decide(query, left_deep(), skewed_catalog())
        assert decision.migrate
        assert decision.migration_cost == 0.0


def attributes(optimizer):
    """An optimizer's attributes, its cost model's spelled out."""
    return {
        name: vars(value) if name == "cost_model" else value
        for name, value in vars(optimizer).items()
    }


class TestSharedInstance:
    """The controller shares one re-optimizer across all its queries, so a
    decision must depend on its arguments and the thresholds alone."""

    def test_alternating_queries_decide_as_fresh_instances(self):
        settings = dict(
            improvement_threshold=0.9,
            migration_cost_per_value=0.001,
            savings_horizon=500.0,
        )
        windows = {"A": 100, "B": 100, "C": 100}
        joined = Query(left_deep(), windows)
        filtered = Query(
            DistinctNode(SelectNode(JoinNode(A, B, AB), Comparison(">", Field("A.x"), Literal(1)))),
            windows,
        )
        rounds = [
            (joined, joined.plan, skewed_catalog()),
            (filtered, filtered.plan, skewed_catalog()),
            (joined, joined.plan, uniform_catalog()),
            (filtered, filtered.plan, StatisticsCatalog()),
        ] * 2
        shared = ReOptimizer(**settings)
        before = copy.deepcopy(attributes(shared))
        reasons = set()
        for query, plan, statistics in rounds:
            decision = shared.decide(query, plan, statistics)
            alone = ReOptimizer(**settings).decide(query, plan, statistics)
            assert decision == alone
            reasons.add(decision.reason)
        assert attributes(shared) == before
        # The rounds cover a migration, a keep and a cold skip.
        assert {None, "cold-statistics"} < reasons
