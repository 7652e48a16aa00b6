"""GenMig with the reference-point optimization (Section 4.5, Opt. 1).

The reference-point method [Seeger 1991; van den Bercken & Seeger 1996]
avoids output duplicates without coalescing:

* the split sends elements to the *old* box **unsplit** (full validity) —
  only elements with a start timestamp below ``T_split``;
* the coalesce operator is replaced by a selection on top of the new box
  that drops every result whose start timestamp (the reference point)
  equals ``T_split``, plus a plain concatenation of the two outputs —
  first everything the old box produces, then the new box's results;
* no synchronisation buffer is needed: all old-box results start below
  ``T_split``, all surviving new-box results at or above it.

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

from typing import Any, Dict, Optional

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import Time
from .genmig import GenMig
from .split import ReferencePointSplit


class _ReferencePointFilter:
    """Selection on the new box output: drop results starting at T_split."""

    def __init__(self, gate, t_split: Time) -> None:
        self._gate = gate
        self.t_split = t_split
        self.dropped = 0

    def process(self, element: StreamElement, port: int = 0) -> None:
        if element.start == self.t_split:
            self.dropped += 1
            return
        self._gate.process(element)

    def process_batch(self, batch: Batch) -> None:
        """A start-ordered run: passed whole when no result in it starts
        at ``T_split``, dropped whole when every one does, and taken
        result by result otherwise."""
        t = self.t_split
        if batch.first_start > t or batch.last_start < t:
            self._gate.process_batch(batch)
        elif batch.first_start == batch.last_start:
            self.dropped += len(batch)
        else:
            for element in batch.elements:
                self.process(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        self._gate.process_heartbeat(t)


class _OldOutputMonitor:
    """Pass-through on the old box output that audits the RP precondition.

    A start-preserving old box never produces a result starting at or after
    ``T_split``; the monitor counts violations (each one is a potential
    duplicated snapshot) so tests can demonstrate why the optimization is
    restricted.
    """

    def __init__(self, gate, t_split: Time) -> None:
        self._gate = gate
        self.t_split = t_split
        self.violations = 0

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
        new-box result above it, so plain concatenation is already in
        start order.
        """
        self._monitor = _OldOutputMonitor(executor.gate, self.t_split)
        self.old_box.root.detach_sink(executor.gate)
        self.old_box.root.attach_sink(self._monitor)
        self._filter = _ReferencePointFilter(executor.gate, self.t_split)
        self.new_box.root.attach_sink(self._filter)

    def _report_extra(self) -> Dict[str, Any]:
        return {
            "dropped_at_split": self._filter.dropped,
            "old_start_violations": self._monitor.violations,
        }

    def _digest_extra(self) -> tuple:
        """The reference-point filter counters."""
        return (
            self._filter.dropped if self._filter is not None else None,
            self._monitor.violations if self._monitor is not None else None,
        )
