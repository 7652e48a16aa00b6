"""The Parallel Track (PT) baseline of Zhu, Rundensteiner & Heineman (2004).

Implemented as published (Section 3.1 of the GenMig paper) so that both its
behaviour on join reordering *and its defect* on other stateful operators
reproduce:

* At migration start, the new box is plugged in and both boxes receive all
  subsequent input.  Input into the old box is flagged ``NEW``; everything
  already in its state (unflagged) counts as ``OLD``.
* Operators combine flags: a derived result is ``NEW`` only if all involved
  elements are ``NEW``; the old box drops ``NEW``-flagged results at its
  output (the new box produces those), everything else is delivered.
* The new box's entire output is buffered during the migration to preserve
  output ordering, and flushed in one burst at the end — the Figure 4
  burst.
* The old box keeps state under the tuple-timestamp purge rule of [1]
  (retention until ``start + w``, not until the interval end), and the
  migration ends only when no pre-migration-derived element remains in any
  old-box state — about ``2w`` for multi-join plans (Section 4.4).

Section 3 of the paper proves this flag mechanism unsound for stateful
operators beyond joins (duplicate elimination, aggregation, difference):
validities of old-box results can reach beyond the migration start and
collide with new-box results.  :meth:`ParallelTrack.begin` therefore guards
against such plans; pass ``force=True`` to reproduce the incorrect
behaviour (as the Figure 2 experiment does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine.box import Box
from ..operators.join import _JoinBase
from ..temporal.element import NEW, Payload, StreamElement
from ..temporal.time import Time
from .split import Route, _TwoSidedRouter
from .strategy import MigrationReport, MigrationStrategy


class _DualTap(_TwoSidedRouter):
    """Feeds one input into both boxes: flagged ``NEW`` old, plain new.

    Both sides are promised the raw watermark; the tap's work is not
    charged to the meter ([1]'s cost model has no such operator).
    """

    _old_flag = NEW

    def _route(self, start: Time, end: Time, row: Payload) -> Route:
        return end, start


class _OldOutputFilter:
    """Drops ``NEW``-flagged old-box results; forwards the rest unflagged."""

    def __init__(self, gate) -> None:
        self._gate = gate
        self.dropped = 0

    def process(self, element: StreamElement, port: int = 0) -> None:
        if element.flag == NEW:
            self.dropped += 1
            return
        self._gate.process(element.with_flag(None))

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        self._gate.process_heartbeat(t)


class _NewOutputBuffer:
    """Buffers the new box's output until the migration ends."""

    def __init__(self) -> None:
        self.elements: List[StreamElement] = []
        self.peak = 0

    def process(self, element: StreamElement, port: int = 0) -> None:
        self.elements.append(element)
        self.peak = max(self.peak, len(self.elements))

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Progress is withheld along with the buffered results."""

    def value_count(self) -> int:
        return sum(len(e.payload) for e in self.elements)


class ParallelTrack(MigrationStrategy):
    """The PT migration strategy, faithful to its published behaviour.

    Args:
        force: migrate even when a box contains stateful operators other
            than joins — the configuration Section 3 proves incorrect.
        check_interval: how often (application time) to scan old-box state
            for remaining old elements; completion cannot occur before
            ``start + w`` anyway, so scanning is throttled.  Defaults to
            1/20 of the window.
    """

    name = "parallel-track"
    verdict_key = "parallel-track"

    def __init__(self, force: bool = False, check_interval: Optional[Time] = None) -> None:
        super().__init__()
        self.force = force
        self.check_interval = check_interval
        self._migration_start: Time = 0
        self._purge_horizon: Time = 0
        self._next_check: Time = 0
        self.old_box: Optional[Box] = None
        self.new_box: Optional[Box] = None
        self._buffer = _NewOutputBuffer()
        self._old_filter: Optional[_OldOutputFilter] = None
        self._taps: Dict[str, _DualTap] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def begin(self, executor, new_box: Box) -> None:
        self._check_scope(executor.box, new_box)
        self.old_box = executor.box
        self.new_box = new_box
        self._migration_start = executor.clock
        window = executor.global_window + executor.interval_bound
        self._purge_horizon = self._migration_start + window
        if self.check_interval is None:
            self.check_interval = max(1, window // 20)
        self._next_check = self._purge_horizon

        # [1]'s purge rule: a state tuple lives until start + w, regardless
        # of how short its validity interval is.  [1] defines it for join
        # state, the only state _check_scope lets through unforced.
        for operator in self.old_box.operators:
            if isinstance(operator, _JoinBase):
                operator.set_retention(_tuple_timestamp_retention(window))

        self._old_filter = _OldOutputFilter(executor.gate)
        self.old_box.root.detach_sink(executor.gate)
        self.old_box.root.attach_sink(self._old_filter)
        new_box.root.attach_sink(self._buffer)

        self._taps = self._splice(
            executor,
            self.old_box,
            new_box,
            lambda source: _DualTap(f"tap[{source}]"),
        )

    def after_event(self, executor) -> None:
        clock = executor.clock
        at_end_of_stream = executor.at_end_of_stream
        if not at_end_of_stream:
            if clock < self._purge_horizon or clock < self._next_check:
                return
            self._next_check = clock + self.check_interval
        if self._old_elements_remain():
            if not at_end_of_stream:
                return
        if not self._gate(executor, "complete"):
            return
        self._complete(executor)

    def _old_elements_remain(self) -> bool:
        """Whether any old-box state still derives from before the migration.

        That is an element flagged ``OLD``, or an unflagged one starting
        before the migration start.  The start test is needed: operators
        that rebuild their state elements (duplicate elimination's
        coverage) drop the flag, and a forced distinct plan under steady
        input always holds coverage, so a flag-only test would wait for
        end of stream.  Stops at the first such element; a join's sides are read as raw
        entries (:meth:`~repro.operators.join._JoinBase.held_entries`), so
        nothing is boxed.
        """
        # A staged old-box result has not passed the output filter yet.
        if self.old_box.has_staged_output():
            return True
        migration_start = self._migration_start
        for op in self.old_box.operators:
            if isinstance(op, _JoinBase):
                held = op.held_entries()
            else:
                held = (
                    (e.start, e.end, e.payload, e.flag)
                    for port in range(op.arity)
                    for e in op.state_of_port(port)
                )
            for start, _, _, flag in held:
                if flag != NEW and (flag is not None or start < migration_start):
                    return True
        return False

    def _complete(self, executor) -> None:
        self.old_box.root.detach_sink(self._old_filter)
        # The burst: flush the buffered new-box output in arrival order —
        # the one place a strategy delivers out of start order by design.
        gate = executor.gate
        gate.expects_disorder = True
        try:
            for element in self._buffer.elements:
                gate.process(element)
        finally:
            gate.expects_disorder = False
        flushed = len(self._buffer.elements)
        self._buffer.elements.clear()
        self._hand_over(executor, self.old_box, self.new_box)
        self._report = MigrationReport(
            strategy=self.name,
            triggered_at=self._migration_start,
            started_at=self._migration_start,
            completed_at=executor.clock,
            t_split=None,
            extra={
                "buffered_peak": self._buffer.peak,
                "flushed": flushed,
                "old_results_dropped": self._old_filter.dropped,
                "order_violations": executor.gate.order_violations,
            },
        )

    def state_value_count(self) -> int:
        total = self._buffer.value_count()
        if self.new_box is not None and not self.finished:
            total += self.new_box.state_value_count()
        return total

    @property
    def phase(self) -> str:
        return "done" if self.finished else "parallel"

    def phase_state(self) -> Optional[tuple]:
        """Canonical digest of all PT-owned state (see the base class).

        Covers the dual-track bookkeeping, the new box's state and the
        output buffer: the buffered elements are part of the observable
        future (the end-of-migration burst), so pruning may only identify
        states whose buffers agree element for element.
        """
        buffered = tuple(
            (e.start, e.end, repr(e.payload), repr(e.flag))
            for e in self._buffer.elements
        )
        return (
            self.name,
            self.phase,
            self._migration_start,
            self._purge_horizon,
            self._next_check,
            self.new_box.state_digest() if self.new_box is not None else None,
            buffered,
            self._old_filter.dropped if self._old_filter is not None else None,
        )


def _tuple_timestamp_retention(window: Time):
    """Build [1]'s purge rule: keep a tuple until ``start + window``."""

    def retention(element: StreamElement) -> Time:
        return max(element.end, element.start + window)

    return retention
