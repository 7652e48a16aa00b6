"""Shared test utilities.

Three pillars:

* :func:`run_query` — drive a box (optionally with a scheduled migration)
  over finite streams and return the collected output.
* :data:`STATELESS_FACTORIES` / :func:`concrete_stateless_classes` — one
  instance of every concrete ``StatelessOperator`` subclass, for the
  per-class contract suites.
* :class:`RelationalReference` — the snapshot-reducibility oracle of
  Definition 1: evaluates a logical plan *relationally*, snapshot by
  snapshot, with the exact bag algebra of ``repro.temporal.multiset``.
  Comparing an operator pipeline's output snapshots against this oracle
  verifies snapshot-reducibility directly, with no reliance on the engine
  under test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine import Box, MetricsRecorder, QueryExecutor
from repro.engine.box import Router
from repro.engine.scheduler import Scheduler
from repro.operators import (
    CostMeter,
    NowWindow,
    Project,
    ProjectFields,
    Select,
    TimeWindow,
    UnboundedWindow,
)
from repro.operators.base import StatelessOperator
from repro.plans.logical import (
    AggregateNode,
    DifferenceNode,
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)
from repro.streams import CollectorSink, PhysicalStream
from repro.temporal import Multiset, StreamElement, Time, snapshot
from repro.temporal.time import MAX_TIME


#: A fresh instance of every concrete ``StatelessOperator`` subclass.
STATELESS_FACTORIES = {
    TimeWindow: lambda: TimeWindow(7),
    NowWindow: NowWindow,
    UnboundedWindow: UnboundedWindow,
    Select: lambda: Select(lambda p: p[0] % 2 == 0, cost=3),
    Project: lambda: Project(lambda p: (p[0] + 1, p[0])),
    ProjectFields: lambda: ProjectFields([0, 0]),
    Router: Router,
}


def concrete_stateless_classes() -> List[type]:
    """Every public ``repro`` subclass of ``StatelessOperator``."""
    found, frontier = [], list(StatelessOperator.__subclasses__())
    while frontier:
        cls = frontier.pop()
        frontier.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and not cls.__name__.startswith("_"):
            found.append(cls)
    return found


def run_query(
    streams: Dict[str, PhysicalStream],
    windows: Dict[str, Time],
    box: Box,
    migrate_at: Optional[Time] = None,
    new_box: Optional[Box] = None,
    strategy=None,
    scheduler: Optional[Scheduler] = None,
    metrics: Optional[MetricsRecorder] = None,
    meter: Optional[CostMeter] = None,
    interval_bound: Time = 1,
) -> Tuple[List[StreamElement], QueryExecutor]:
    """Run one query to completion; returns (results, executor)."""
    sink = CollectorSink()
    executor = QueryExecutor(
        streams,
        windows,
        box,
        scheduler=scheduler,
        metrics=metrics,
        meter=meter,
        interval_bound=interval_bound,
    )
    executor.add_sink(sink)
    if migrate_at is not None:
        if new_box is None or strategy is None:
            raise ValueError("migration requires new_box and strategy")
        executor.schedule_migration(migrate_at, new_box, strategy)
    executor.run()
    return sink.elements, executor


def windowed(stream: Iterable[StreamElement], window: Time) -> List[StreamElement]:
    """Apply the time-window validity extension to a raw stream."""
    return [e.with_interval(e.interval.extend(window)) for e in stream]


class RelationalReference:
    """Snapshot-by-snapshot relational evaluation of a logical plan."""

    def __init__(
        self,
        windowed_streams: Dict[str, Sequence[StreamElement]],
    ) -> None:
        self._streams = windowed_streams

    def snapshot_of(self, plan: LogicalPlan, t: Time) -> Multiset:
        """Evaluate ``plan``'s relational counterpart at instant ``t``."""
        if isinstance(plan, Source):
            return snapshot(self._streams[plan.name], t)
        if isinstance(plan, SelectNode):
            predicate = plan.predicate.compile(plan.child.schema)
            return self.snapshot_of(plan.child, t).select(predicate)
        if isinstance(plan, ProjectNode):
            compiled = [expr.compile(plan.child.schema) for expr, _ in plan.outputs]
            return self.snapshot_of(plan.child, t).project(
                lambda row: tuple(fn(row) for fn in compiled)
            )
        if isinstance(plan, DistinctNode):
            return self.snapshot_of(plan.child, t).distinct()
        if isinstance(plan, JoinNode):
            left = self.snapshot_of(plan.left, t)
            right = self.snapshot_of(plan.right, t)
            if plan.condition is None:
                return left.join(right, lambda a, b: True)
            predicate = plan.condition.compile(plan.schema)
            return left.join(right, lambda a, b: predicate(a + b))
        if isinstance(plan, UnionNode):
            return self.snapshot_of(plan.left, t).union(self.snapshot_of(plan.right, t))
        if isinstance(plan, DifferenceNode):
            return self.snapshot_of(plan.left, t).difference(
                self.snapshot_of(plan.right, t)
            )
        if isinstance(plan, AggregateNode):
            return self._aggregate(plan, t)
        raise TypeError(f"no reference evaluation for {type(plan).__name__}")

    def _aggregate(self, plan: AggregateNode, t: Time) -> Multiset:
        from repro.operators.scalar import avg_of, count, max_of, min_of, sum_of

        child_schema = plan.child.schema
        bag = self.snapshot_of(plan.child, t)
        functions = []
        for spec in plan.aggregates:
            index = child_schema.index(spec.column) if spec.column is not None else 0
            factory = {
                "count": lambda i: count(),
                "sum": sum_of,
                "avg": avg_of,
                "min": min_of,
                "max": max_of,
            }[spec.function]
            functions.append(factory(index))
        if not plan.group_by:
            if not bag:
                return Multiset()
            rows = list(bag)
            return Multiset([tuple(fn(rows) for fn in functions)])
        indices = [child_schema.index(column) for column in plan.group_by]
        groups = bag.group_by(lambda row: tuple(row[i] for i in indices))
        result = []
        for key, members in groups.items():
            rows = list(members)
            result.append(key + tuple(fn(rows) for fn in functions))
        return Multiset(result)

    def check(
        self,
        plan: LogicalPlan,
        output: Sequence[StreamElement],
        instants: Iterable[Time],
    ) -> Optional[Time]:
        """First instant where ``output`` diverges from the reference."""
        for t in instants:
            if t >= MAX_TIME:
                continue
            if snapshot(output, t) != self.snapshot_of(plan, t):
                return t
        return None


def probe_instants(*streams: Sequence[StreamElement]) -> List[Time]:
    """Integer probe instants covering every snapshot of the streams."""
    from repro.temporal import critical_instants

    return critical_instants(*streams)
