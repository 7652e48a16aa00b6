"""GenMig with the reference-point optimization (Section 4.5, Opt. 1).

The reference-point method [Seeger 1991; van den Bercken & Seeger 1996]
avoids output duplicates without coalescing:

* the split sends elements to the *old* box **unsplit** (full validity) —
  only elements with a start timestamp below ``T_split``;
* the coalesce operator is replaced by a selection on top of the new box
  that drops every result whose start timestamp (the reference point)
  equals ``T_split``, and a hand-off between the two outputs — first
  everything the old box produces, then the new box's results;
* no coalesce tables are needed: all old-box results start below
  ``T_split``, all surviving new-box results above it.  Under a skewed
  schedule, though, one input can pass ``T_split`` and feed the new box
  while another still feeds the old one, so the selection holds the new
  box's survivors (and its progress promises) until the old box promises
  past ``T_split``, and then releases them as one run.  Under global
  temporal order every input passes ``T_split`` in the same heartbeat,
  before the new box sees an element, and nothing is ever held.

This saves the memory and CPU of the coalesce operator (Figure 6 shows the
gain), but it is sound only for *start-preserving* plans: every result's
start timestamp must equal the start of some contributing input element —
true for selection, projection, union and joins (the paper's experiments),
but not for duplicate elimination, aggregation or difference, whose results
can start mid-interval.  For such plans the strategy refuses to run unless
``force=True`` (useful to demonstrate the failure mode in tests); use plain
:class:`~repro.core.genmig.GenMig` instead — it has no such restriction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import Time
from .genmig import GenMig
from .split import ReferencePointSplit


class _ReferencePointFilter:
    """Selection on the new box output: drop results starting at T_split,
    and hold the survivors until :meth:`release` (the old box is done)."""

    def __init__(self, gate, t_split: Time) -> None:
        self._gate = gate
        self.t_split = t_split
        self.dropped = 0
        self.holding = True
        self.held: List[StreamElement] = []
        #: Payload values in :attr:`held` (migration state).
        self.held_values = 0
        self._held_promise: Optional[Time] = None

    def process(self, element: StreamElement, port: int = 0) -> None:
        if element.start == self.t_split:
            self.dropped += 1
        elif self.holding:
            self.held.append(element)
            self.held_values += len(element.payload)
        else:
            self._gate.process(element)

    def process_batch(self, batch: Batch) -> None:
        """A start-ordered run: once released, passed whole when no result
        in it starts at ``T_split``; dropped whole when every one does, and
        taken (or held) result by result otherwise."""
        t = self.t_split
        if not self.holding and (batch.first_start > t or batch.last_start < t):
            self._gate.process_batch(batch)
        elif batch.first_start == batch.last_start == t:
            self.dropped += len(batch)
        else:
            for element in batch.elements:
                self.process(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        if self.holding:
            self._held_promise = t
        else:
            self._gate.process_heartbeat(t)

    def release(self) -> None:
        """Deliver everything held as one run, then pass results through."""
        if not self.holding:
            return
        self.holding = False
        held, self.held = self.held, []
        self.held_values = 0
        if held:
            self._gate.process_batch(Batch(held))
        if self._held_promise is not None:
            self._gate.process_heartbeat(self._held_promise)


class _OldOutputMonitor:
    """Pass-through on the old box output that audits the RP precondition
    and hands the output over to the new box.

    A start-preserving old box never produces a result starting at or after
    ``T_split``; the monitor counts violations (each one is a potential
    duplicated snapshot) so tests can demonstrate why the optimization is
    restricted.  Once the old box promises ``T_split``, it has delivered
    everything it owes, and the monitor releases the new box's held results;
    it never forwards a promise past ``T_split``, which would speak for the
    new box too.
    """

    def __init__(self, gate, t_split: Time, new_output: _ReferencePointFilter) -> None:
        self._gate = gate
        self.t_split = t_split
        self.violations = 0
        self._new_output = new_output

    def process(self, element: StreamElement, port: int = 0) -> None:
        if element.start >= self.t_split:
            self.violations += 1
        self._gate.process(element)

    def process_batch(self, batch: Batch) -> None:
        """Count a run's violations, then pass it on whole."""
        t = self.t_split
        if batch.last_start >= t:
            self.violations += sum(1 for element in batch.elements if element.start >= t)
        self._gate.process_batch(batch)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Forward the old box's promise, capped at ``T_split``.

        Past ``T_split`` the old box speaks only for itself (it reaches
        end of stream once every input has passed ``T_split``); the new
        box's results follow, and the released filter forwards the new
        root's own promises.
        """
        if t >= self.t_split:
            self._new_output.release()
            t = self.t_split
        self._gate.process_heartbeat(t)


class ReferencePointGenMig(GenMig):
    """GenMig variant using the reference-point method instead of coalesce."""

    name = "genmig-rp"
    verdict_key = "reference-point"

    def __init__(self, force: bool = False) -> None:
        super().__init__()
        self.force = force
        self._filter: Optional[_ReferencePointFilter] = None
        self._monitor: Optional[_OldOutputMonitor] = None

    def _make_split(self, name: str) -> ReferencePointSplit:
        return ReferencePointSplit(self.t_split, name=f"rp-split[{name}]")

    def _attach_output(self, executor) -> None:
        """No merge operator: old results first, filtered new results after.

        Every old-box result starts below ``T_split`` and every surviving
        new-box result above it, so handing the output over from the old
        root to the new one once the old root promises ``T_split`` keeps
        it in start order.
        """
        self._filter = _ReferencePointFilter(executor.gate, self.t_split)
        self.new_box.root.attach_sink(self._filter)
        self._monitor = _OldOutputMonitor(executor.gate, self.t_split, self._filter)
        self.old_box.root.detach_sink(executor.gate)
        self.old_box.root.attach_sink(self._monitor)

    def _detach_output(self, executor) -> None:
        """The old box is drained: deliver whatever the filter still holds."""
        self._filter.release()

    def state_value_count(self) -> int:
        held = self._filter.held_values if self._phase == "parallel" else 0
        return super().state_value_count() + held

    def _report_extra(self) -> Dict[str, Any]:
        return {
            "dropped_at_split": self._filter.dropped,
            "old_start_violations": self._monitor.violations,
        }

    def _digest_extra(self) -> tuple:
        """The reference-point filter's counters and held results."""
        if self._filter is None:
            return (None, None)
        return (
            self._filter.dropped,
            self._monitor.violations,
            self._filter.holding,
            tuple((e.start, e.end, repr(e.payload)) for e in self._filter.held),
        )
