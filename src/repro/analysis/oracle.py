"""The specification every migration is judged by.

Snapshot equivalence (Definitions 1-2, Lemma 1) plus delivery in start
order is the contract of every migration strategy.  It is stated here
once, for the model checker (:mod:`repro.analysis.modelcheck`) and the
test suite's migration harness alike: :class:`RelationalOracle` evaluates
the logical plan, and :meth:`RelationalOracle.judge` reads one output
against it.  An
output that matches the oracle at every critical instant of the inputs
and of itself matches it everywhere, so two clean outputs are always
snapshot-equivalent to each other.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..temporal import Multiset, StreamElement, critical_instants, snapshot
from ..temporal.time import MAX_TIME, Time

#: One finding of :meth:`RelationalOracle.judge`: ``(code, message, instant)``.
Finding = Tuple[str, str, Optional[Time]]


class RelationalOracle:
    """Snapshot-by-snapshot relational evaluation of a logical plan.

    Evaluates the plan's relational counterpart over the *windowed* input
    streams with the bag algebra of :class:`repro.temporal.Multiset` —
    independent of the engine under test, so a divergence implicates the
    engine (or the migration protocol), never the oracle.
    """

    def __init__(self, windowed_streams: Dict[str, Sequence[StreamElement]]) -> None:
        self._streams = windowed_streams

    def snapshot_of(self, plan: object, t: Time) -> Multiset:
        """Evaluate ``plan``'s relational counterpart at instant ``t``."""
        from ..plans.logical import (
            AggregateNode,
            DifferenceNode,
            DistinctNode,
            JoinNode,
            ProjectNode,
            SelectNode,
            Source,
            UnionNode,
        )

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
            return self.snapshot_of(plan.left, t).union(
                self.snapshot_of(plan.right, t)
            )
        if isinstance(plan, DifferenceNode):
            return self.snapshot_of(plan.left, t).difference(
                self.snapshot_of(plan.right, t)
            )
        if isinstance(plan, AggregateNode):
            return self._aggregate(plan, t)
        raise TypeError(f"no reference evaluation for {type(plan).__name__}")

    def _aggregate(self, plan: object, t: Time) -> Multiset:
        from ..operators.scalar import avg_of, count, max_of, min_of, sum_of

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
        plan: object,
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

    def judge(
        self, plan: object, output: Sequence[StreamElement], check_order: bool = True
    ) -> List[Finding]:
        """The violations of one output: order first, then the oracle.

        ``MCK004`` names the first result delivered after a later-starting
        one (skipped with ``check_order=False``: Parallel Track's
        end-of-migration burst interleaves by design); ``MCK001`` names the
        first critical instant where the output's snapshot differs from
        the oracle's.
        """
        findings: List[Finding] = []
        late = next((b for a, b in zip(output, output[1:]) if b.start < a.start), None)
        if check_order and late is not None:
            findings.append(
                (
                    "MCK004",
                    f"a result starting at {late.start} is delivered after a "
                    "later one: the output is not a physical stream "
                    "(non-decreasing start timestamps)",
                    late.start,
                )
            )
        instants = critical_instants(*self._streams.values(), output)
        divergence = self.check(plan, output, instants)
        if divergence is not None:
            findings.append(
                (
                    "MCK001",
                    f"output diverges from the relational oracle at instant {divergence}",
                    divergence,
                )
            )
        return findings
