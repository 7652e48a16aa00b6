"""The autonomic re-optimization controller: monitor → decide → migrate.

The controller closes the loop the paper's introduction sketches: the DSMS
continuously maintains runtime statistics, and "whenever the need for a
re-optimization is detected", replaces a stale plan via dynamic migration.
It is the only place a plan migration is decided and started.  Per managed
query it periodically asks one shared, stateless :class:`ReOptimizer` to
``decide``, tempered by the guards that make the loop safe to leave
unattended:

* **warmup** — rounds are skipped while the statistics are cold (the
  re-optimizer's minimum-observation check);
* **in-flight guard** — a round never overlaps a running migration (the
  controller's check alone: it runs before the re-optimizer is asked);
* **hysteresis/cooldown** — after a migration completes, further
  migrations are suppressed for a configurable span so plan flapping
  cannot oscillate state back and forth;
* **migration-cost awareness** — the decide step vetoes migrations whose
  projected savings do not amortise the state that must drain;
* **automatic strategy selection** — the plan verifier's recommendation
  for the two boxes (reference-point when both are start-preserving,
  GenMig with coalesce otherwise); an explicit policy
  preference the plan verifier finds unsound for a round's plans is
  refused and logged, never replaced by another strategy (see
  :func:`repro.core.strategy.select_strategy`).

Every outcome lands in the query's :class:`~repro.service.events.
QueryEventLog` (mirrored into its metrics recorder) — the one audit trail
of the service's migration activity, per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..optimizer.cost import CostModel
from ..optimizer.optimizer import ReOptimizer
from ..temporal.time import Time
from . import events as ev
from .registry import QueryRegistry, RegisteredQuery


@dataclass
class ControllerPolicy:
    """The policy knobs of the autonomic controller.

    Attributes:
        period: application time between consideration rounds per query.
        warmup_observations: minimum arrivals per source before decisions
            are trusted (rounds below it record ``skipped-cold``).
        cooldown: minimum application time between a completed migration
            and the next one on the same query (hysteresis).
        improvement_threshold: migrate only below this fraction of the
            current plan's cost.
        migration_cost_per_value: cost units per payload value of current
            state, charged against a candidate migration (0 disables).
        savings_horizon: application time over which the cost advantage
            must amortise the migration cost.
        strategy: ``"auto"`` (recommended), ``"coalesce"``,
            ``"reference-point"``, ``"parallel-track"`` or ``"fluid"``; a
            round whose plans the preferred strategy cannot migrate
            soundly records ``skipped-unsound-strategy`` with the
            verifier codes and migrates nothing.
    """

    period: Time = 500
    warmup_observations: int = 25
    cooldown: Time = 2000
    improvement_threshold: float = 0.8
    migration_cost_per_value: float = 0.01
    savings_horizon: float = 1000.0
    strategy: str = "auto"


class AutonomicController:
    """Runs periodic re-optimization rounds over all managed queries."""

    def __init__(
        self,
        registry: QueryRegistry,
        policy: Optional[ControllerPolicy] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.registry = registry
        self.policy = policy or ControllerPolicy()
        self.optimizer = ReOptimizer(
            cost_model=cost_model,
            improvement_threshold=self.policy.improvement_threshold,
            min_observations=self.policy.warmup_observations,
            migration_cost_per_value=self.policy.migration_cost_per_value,
            savings_horizon=self.policy.savings_horizon,
        )
        self._managed: Set[str] = set()
        self._due: Dict[str, Time] = {}

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #

    def manage(self, handle: RegisteredQuery) -> None:
        """Put one registered query under autonomic control."""
        self._managed.add(handle.name)
        handle.executor.on_migration_complete = (
            lambda report, h=handle: self._completed(h, report)
        )

    def release(self, handle: RegisteredQuery) -> None:
        """Stop managing a query (its executor keeps running)."""
        self._managed.discard(handle.name)
        self._due.pop(handle.name, None)
        handle.executor.on_migration_complete = None

    # ------------------------------------------------------------------ #
    # The periodic loop
    # ------------------------------------------------------------------ #

    def on_progress(self, now: Time) -> None:
        """Hub callback: run every consideration round that has come due."""
        for handle in self.registry.active():
            if handle.name not in self._managed:
                continue
            due = self._due.setdefault(handle.name, now + self.policy.period)
            if now < due:
                continue
            self._due[handle.name] = now + self.policy.period
            self._round(handle, now)

    def _round(self, handle: RegisteredQuery, now: Time) -> None:
        log = handle.events
        log.record(now, ev.CONSIDERED, plan=handle.plan.signature())
        executor = handle.executor
        if executor.migration_active:
            log.record(now, ev.SKIPPED_IN_FLIGHT)
            return
        last = handle.last_migration_completed
        if last is not None and now - last < self.policy.cooldown:
            log.record(now, ev.SKIPPED_COOLDOWN, until=last + self.policy.cooldown)
            return
        decision = self.optimizer.decide(handle.query, handle.plan, executor.statistics)
        if decision.reason == "cold-statistics":
            log.record(
                now,
                ev.SKIPPED_COLD,
                min_observations=self.policy.warmup_observations,
            )
            return
        if decision.reason == "migration-cost":
            log.record(
                now,
                ev.SKIPPED_MIGRATION_COST,
                migration_cost=decision.migration_cost,
                projected_savings=decision.projected_savings,
            )
            return
        if not decision.migrate:
            log.record(
                now,
                ev.KEPT,
                current_cost=decision.current_cost,
                best_cost=decision.best_cost,
                candidates=decision.candidates_considered,
            )
            return
        self._migrate(handle, decision, now)

    def _migrate(self, handle: RegisteredQuery, decision, now: Time) -> None:
        from ..core.strategy import UnsoundPreferenceError, select_strategy

        executor = handle.executor
        version = len(executor.migration_log) + 1
        new_box = self.registry.builder.build(
            decision.chosen, label=f"{handle.name}/{version}"
        )
        prefer = self.policy.strategy
        try:
            strategy = select_strategy(executor.box, new_box, prefer=prefer)
        except UnsoundPreferenceError as refusal:
            handle.events.record(
                now,
                ev.SKIPPED_UNSOUND_STRATEGY,
                strategy=refusal.prefer,
                codes=list(refusal.codes),
                new_plan=decision.chosen.signature(),
            )
            return
        handle.pending_plan = decision.chosen
        verdict = strategy.selection_verdict
        if prefer == "auto":
            justification = verdict.reason
        else:
            justification = (
                f"the policy prefers {prefer!r}, which the plan verifier "
                "finds sound for both boxes"
            )
        handle.events.record(
            now,
            ev.MIGRATED,
            strategy=strategy.name,
            new_plan=decision.chosen.signature(),
            current_cost=decision.current_cost,
            best_cost=decision.best_cost,
            migration_cost=decision.migration_cost,
            projected_savings=decision.projected_savings,
            # The static analysis justifying the strategy choice: the two
            # boxes' migration profiles and why this strategy runs.
            profiles=sorted(verdict.profiles),
            justification=justification,
        )
        executor.start_migration(new_box, strategy)

    def _completed(self, handle: RegisteredQuery, report) -> None:
        if handle.pending_plan is not None:
            handle.plan = handle.pending_plan
            handle.pending_plan = None
        handle.last_migration_completed = report.completed_at
        handle.events.record(
            report.completed_at,
            ev.COMPLETED,
            strategy=report.strategy,
            t_split=report.t_split,
            duration=report.duration,
            plan=handle.plan.signature(),
        )
