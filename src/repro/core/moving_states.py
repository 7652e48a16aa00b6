"""The Moving States (MS) baseline of Zhu, Rundensteiner & Heineman (2004).

MS computes the state of the new plan *directly* from the state of the old
plan at migration start, then discards the old plan — there is no parallel
phase.  The GenMig paper keeps it as context: MS "requires a detailed
knowledge about the operator implementations because it needs to access and
modify state information" (Section 1), which is exactly what this module
does and exactly what the black-box GenMig avoids.

Scope: reordering trees of sliding-window joins (optionally with stateless
selection/projection between them) — the case MS was designed for:

1. wait until the old box holds no in-flight (staged) result, so
   everything the old plan owes for the already-arrived elements has been
   delivered in start order — at once under global temporal order, later
   under a skewed schedule, where a lagging input still holds results back;
2. extract the alive base elements of every input from the old box's leaf
   join states;
3. for every join of the new plan, *compute* its two input states as the
   temporal join of the states feeding them, bottom-up — state content
   only, no operator execution, hence no output to deduplicate;
4. install the computed states and switch the routers over.

Once the old box is quiet the switch is instantaneous in application time;
its price is the burst of seeding work in step 3, visible on the cost meter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..engine.box import Box
from ..operators.base import Operator, StatelessOperator
from ..operators.filter import Select
from ..operators.join import _JoinBase
from ..operators.project import Project
from ..temporal.element import StreamElement
from .strategy import MigrationReport, MigrationStrategy, UnsupportedPlanError


class MovingStates(MigrationStrategy):
    """State-matching migration for join-tree plans."""

    name = "moving-states"

    def begin(self, executor, new_box: Box) -> None:
        self._validate(executor.box, new_box)
        self._triggered_at = executor.clock
        self._new_box = new_box

    def after_event(self, executor) -> None:
        """Switch once the old box holds no staged result (owed for elements
        the new box never sees, but not deliverable before a lagging input
        catches up) and its tap joins still hold all a lagging input can meet."""
        old_box = executor.box
        if old_box.has_staged_output() or seed_incomplete(executor, old_box):
            return
        start_clock = executor.clock
        cost_before = executor.meter.total
        new_box = self._new_box

        # Step 2: alive base elements per input, from the leaf join states.
        alive: Dict[str, List[StreamElement]] = {
            source: [
                element
                for operator, port in ports
                for element in operator.state_of_port(port)
            ]
            for source, ports in old_box.taps.items()
        }

        # Step 3 + 4: compute and install every new-plan state bottom-up.
        seeder = _StateSeeder(new_box, alive, executor.meter)
        seeded = seeder.seed()

        self._hand_over(executor, old_box, new_box)
        self._report = MigrationReport(
            strategy=self.name,
            triggered_at=self._triggered_at,
            started_at=start_clock,
            completed_at=executor.clock,
            t_split=None,
            extra={
                "seeded_elements": seeded,
                "seeding_cost": executor.meter.total - cost_before,
            },
        )

    def _validate(self, old_box: Box, new_box: Box) -> None:
        """Refuse a pair outside Moving States' scope, before anything moves:
        join trees with stateless operators, the old one entered through
        its joins (the seed is read from their state)."""
        for operator in old_box.operators + new_box.operators:
            if isinstance(operator, (_JoinBase, Select, Project)):
                continue
            raise UnsupportedPlanError(
                f"Moving States only supports join trees (with stateless "
                f"operators); found {type(operator).__name__}"
            )
        for source, ports in old_box.taps.items():
            for operator, _ in ports:
                if not isinstance(operator, _JoinBase):
                    raise UnsupportedPlanError(
                        f"Moving States requires join entry points, found "
                        f"{type(operator).__name__} at input {source!r}"
                    )


def seed_incomplete(executor, old_box: Box) -> bool:
    """Whether some input lags below state the old box already purged.

    New-plan state is seeded from what the old box's tap operators hold,
    and each purges on its own inputs' watermarks only.  While another
    input's raw watermark lags below a tap operator's purged one, an
    element that operator dropped can still meet a future element of the
    lagging input where the new plan joins them directly (the old plan
    joined it earlier, into intermediate state the seed cannot use), and
    that result would be lost.  State may leave the old plan only once no
    input can still need it, so a handover waits for the lagging input
    (end of stream excepted).  Moving States and every fluid range flip
    obey this rule.
    """
    if executor.at_end_of_stream:
        return False
    lagging = min(router.watermark(0) for router in executor.routers.values())
    return any(
        operator._purged_watermark > lagging
        for ports in old_box.taps.values()
        for operator, _ in ports
    )


class _StateSeeder:
    """Bottom-up state computation over a join-tree box."""

    def __init__(self, box: Box, alive: Dict[str, List[StreamElement]], meter) -> None:
        self._box = box
        self._alive = alive
        self._meter = meter
        # Who feeds each (operator, port): an upstream operator...
        self._feeding_op: Dict[Tuple[int, int], Operator] = {}
        for operator in box.operators:
            for downstream, port in operator.subscribers:
                self._feeding_op[(id(downstream), port)] = operator
        # ... or a named input.
        self._feeding_source: Dict[Tuple[int, int], str] = {}
        for source, ports in box.taps.items():
            for operator, port in ports:
                self._feeding_source[(id(operator), port)] = source
        self._memo: Dict[int, List[StreamElement]] = {}

    def seed(self) -> int:
        """Absorb the computed state into every join; return element count.

        Absorbing merges: Moving States seeds an empty box, fluid migration
        a new box already holding the ranges migrated before.
        """
        seeded = 0
        for operator in self._box.operators:
            if not isinstance(operator, _JoinBase):
                continue
            for port in (0, 1):
                state = self._input_stream(operator, port)
                operator.absorb_state(port, state)
                seeded += len(state)
        return seeded

    def _input_stream(self, operator: Operator, port: int) -> List[StreamElement]:
        """The alive elements of the stream feeding ``(operator, port)``."""
        source = self._feeding_source.get((id(operator), port))
        if source is not None:
            return list(self._alive[source])
        upstream = self._feeding_op.get((id(operator), port))
        if upstream is None:
            raise UnsupportedPlanError(
                f"{operator.name} port {port} has no feeding stream"
            )
        return self._output_stream(upstream)

    def _output_stream(self, operator: Operator) -> List[StreamElement]:
        """The alive elements ``operator`` would hold downstream."""
        cached = self._memo.get(id(operator))
        if cached is not None:
            return cached
        if isinstance(operator, _JoinBase):
            result = self._join(operator)
        elif isinstance(operator, StatelessOperator):
            # Any single-input stateless operator, through its pure
            # ``evaluate`` hook; callers validate that it has one.
            child = self._input_stream(operator, 0)
            self._meter.charge(len(child) * getattr(operator, "cost", 1), "ms-seed")
            result = operator.evaluate(child)
        else:  # pragma: no cover - callers validate the box first
            raise UnsupportedPlanError(f"cannot seed through {type(operator).__name__}")
        self._memo[id(operator)] = result
        return result

    def _join(self, operator: _JoinBase) -> List[StreamElement]:
        lefts = self._input_stream(operator, 0)
        rights = self._input_stream(operator, 1)
        if getattr(operator, "keyed_state", False):
            return self._join_keyed(operator, lefts, rights)
        results: List[StreamElement] = []
        for left in lefts:
            for right in rights:
                self._meter.charge(operator.predicate_cost, "ms-seed")
                if not operator.pair_matches(left.payload, right.payload):
                    continue
                overlap = left.interval.intersect(right.interval)
                if overlap is None:
                    continue
                results.append(StreamElement(left.payload + right.payload, overlap))
        return results

    def _join_keyed(
        self,
        operator: _JoinBase,
        lefts: List[StreamElement],
        rights: List[StreamElement],
    ) -> List[StreamElement]:
        """Hash-paired seeding for keyed (equi-) joins.

        ``pair_matches`` of a keyed join is exactly key equality, so
        bucketing the right side and probing per left key yields the same
        pairs in the same order as the all-pairs scan — at the runtime
        join's own cost profile (one hash charge per probe, predicate
        cost per candidate) instead of |L|·|R| candidate charges.  This
        is what keeps fluid migration's per-range reseeding off the
        quadratic path the whole-box Moving States computation tolerates
        once per migration but a per-flip drain cannot.
        """
        left_field, right_field = operator.key_fields
        buckets: Dict[Any, List[StreamElement]] = {}
        for right in rights:
            buckets.setdefault(right.payload[right_field], []).append(right)
        results: List[StreamElement] = []
        for left in lefts:
            self._meter.charge(1, "ms-seed")
            for right in buckets.get(left.payload[left_field], ()):
                self._meter.charge(operator.predicate_cost, "ms-seed")
                overlap = left.interval.intersect(right.interval)
                if overlap is None:
                    continue
                results.append(StreamElement(left.payload + right.payload, overlap))
        return results
