"""The re-optimizer: statistics → candidate plans → a migrate-or-keep decision.

This is the decision step of the loop the paper's introduction describes:
the DSMS monitors runtime statistics, the optimizer re-optimizes the
logical plan with the conventional transformation rules (sound because all
operators are snapshot-reducible), and — when a sufficiently better plan
exists — the running box is replaced via a dynamic plan migration.  The
migration itself is the autonomic controller's
(:class:`~repro.service.controller.AutonomicController`): it builds the new
box, lets :func:`~repro.core.strategy.select_strategy` choose the strategy
and records the outcome in the query's event log.  A :class:`ReOptimizer`
holds only its thresholds, so one instance serves every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..engine.statistics import StatisticsCatalog
from ..plans.logical import LogicalPlan, Query
from .cost import CostModel
from .rules import join_orders, push_down_distinct, push_down_selections


@dataclass
class OptimizationDecision:
    """What the re-optimizer decided for one consideration round.

    ``reason`` explains a non-migration outcome: ``None`` while migrating,
    otherwise one of ``"no-better-plan"``, ``"below-threshold"``,
    ``"cold-statistics"`` or ``"migration-cost"``.
    """

    current_cost: float
    best_cost: float
    chosen: Optional[LogicalPlan]
    candidates_considered: int
    reason: Optional[str] = None
    migration_cost: float = 0.0
    projected_savings: float = 0.0

    @property
    def migrate(self) -> bool:
        return self.chosen is not None


class ReOptimizer:
    """Cost-based choice between a running plan and its equivalents.

    Args:
        cost_model: the plan cost model.
        improvement_threshold: migrate only when the best candidate costs
            less than ``threshold`` times the current plan — re-optimization
            is not free, so small wins are ignored.
        min_observations: minimum arrivals every source must have on record
            before a decision is trusted; below it the statistics are cold
            (``RateEstimator.rate`` is 0.0 before its second observation)
            and the round records a ``"cold-statistics"`` skip.
        migration_cost_per_value: cost units charged per payload value held
            in the current plan's estimated state — a proxy for the work of
            running two plans in parallel while that state drains.  0.0
            disables the migration-cost veto.
        savings_horizon: application time over which the per-unit-time cost
            advantage must amortise the migration cost.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        improvement_threshold: float = 0.8,
        min_observations: int = 2,
        migration_cost_per_value: float = 0.0,
        savings_horizon: float = 1000.0,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.improvement_threshold = improvement_threshold
        self.min_observations = min_observations
        self.migration_cost_per_value = migration_cost_per_value
        self.savings_horizon = savings_horizon

    def candidates(self, plan: LogicalPlan) -> List[LogicalPlan]:
        """Equivalent plans produced by the transformation rules.

        Every candidate is vetted by the plan verifier before it competes
        on cost: a transformation-rule bug that breaks schema propagation
        is caught here as a dropped candidate instead of a corrupt plan
        installed into a running query.
        """
        from ..analysis.plan_verifier import verify_plan

        seeds = [plan, push_down_selections(plan), push_down_distinct(plan)]
        alternatives: List[LogicalPlan] = []
        seen = set()
        for seed in seeds:
            for candidate in [seed] + join_orders(seed):
                signature = candidate.signature()
                if signature not in seen:
                    seen.add(signature)
                    if verify_plan(candidate).ok:
                        alternatives.append(candidate)
        return alternatives

    def decide(
        self,
        query: Query,
        current: LogicalPlan,
        statistics: StatisticsCatalog,
    ) -> OptimizationDecision:
        """Pick the cheapest equivalent plan; decide whether to migrate."""
        current_cost = self.cost_model.cost(query, current, statistics)
        if not statistics.ready(set(current.sources()), self.min_observations):
            return OptimizationDecision(
                current_cost=current_cost,
                best_cost=0.0,
                chosen=None,
                candidates_considered=0,
                reason="cold-statistics",
            )

        best_plan: Optional[LogicalPlan] = None
        best_cost = current_cost
        alternatives = self.candidates(current)
        for candidate in alternatives:
            if candidate.signature() == current.signature():
                continue
            cost = self.cost_model.cost(query, candidate, statistics)
            if cost < best_cost:
                best_cost = cost
                best_plan = candidate
        reason: Optional[str] = "no-better-plan" if best_plan is None else None
        if best_plan is not None and best_cost >= current_cost * self.improvement_threshold:
            best_plan = None
            reason = "below-threshold"
        migration_cost = 0.0
        projected_savings = 0.0
        if best_plan is not None and self.migration_cost_per_value > 0.0:
            # Weigh the state that must drain from the running plan against
            # the cost advantage projected over the amortisation horizon —
            # the "to migrate or not to migrate" trade-off.
            state = self.cost_model.estimate(query, current, statistics).state
            migration_cost = state * self.migration_cost_per_value
            projected_savings = (current_cost - best_cost) * self.savings_horizon
            if projected_savings <= migration_cost:
                best_plan = None
                reason = "migration-cost"
        return OptimizationDecision(
            current_cost=current_cost,
            best_cost=best_cost,
            chosen=best_plan,
            candidates_considered=len(alternatives),
            reason=reason,
            migration_cost=migration_cost,
            projected_savings=projected_savings,
        )
