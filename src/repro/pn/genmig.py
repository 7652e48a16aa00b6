"""GenMig for the positive-negative implementation (Section 4.6).

The PN variant keeps GenMig's logical split of the time domain but trades
interval splitting for reference points:

* ``T_split`` is set to ``max(t_Si) + w + 1 + EPSILON`` — the Algorithm 1
  formula verbatim.  Every element alive at migration start expires (its
  window-scheduled negative fires) strictly *below* ``T_split``, so the old
  box alone accounts for all output up to ``T_split``.
* The split sends every incoming element to the new box, and additionally
  to the old box while its timestamp lies below ``T_split``.  Negatives
  whose positive predates the migration are withheld from the new box (it
  never saw the positive); their expirations are the old box's business.
* Using each result's timestamp as its reference point, results from the
  old box are accepted when below ``T_split`` and from the new box when
  above it — each output event is produced by exactly one box, and since
  both outputs are internally ordered, emitting the old box's results first
  suffices (no synchronisation buffer).
* The migration ends once every input stream has passed ``T_split``.

This module provides a self-contained batch runner over finite PN inputs;
it demonstrates the Section 4.6 construction end to end and is validated
against the interval implementation through the Section 2.3 conversions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..recovery.errors import RecoveryError
from ..temporal.element import Payload, PNElement
from ..temporal.time import MAX_TIME, Time, half_before
from .operators import PNCollector, PNOperator, PNWindow


@dataclass
class PNBox:
    """A PN physical plan: input taps and an output root."""

    taps: Dict[str, List[Tuple[PNOperator, int]]]
    root: PNOperator


@dataclass
class PNMigrationReport:
    """What happened during a PN GenMig run."""

    t_split: Time
    triggered_at: Time
    completed_at: Time
    old_accepted: int
    new_accepted: int
    old_rejected: int
    new_rejected: int

    @property
    def duration(self) -> Time:
        return self.completed_at - self.triggered_at


class _ReferencePointSink:
    """Collects a box's output, accepting by the reference-point rule."""

    def __init__(self) -> None:
        self.accepted: List[PNElement] = []
        self.rejected = 0
        #: Accept below (old box) or above (new box) this bound; ``None``
        #: accepts everything (pre-migration old box).
        self.accept_below: Optional[Time] = None
        self.accept_above: Optional[Time] = None

    def process(self, element: PNElement, port: int = 0) -> None:
        if self.accept_below is not None and element.timestamp >= self.accept_below:
            self.rejected += 1
            return
        if self.accept_above is not None and element.timestamp <= self.accept_above:
            self.rejected += 1
            return
        self.accepted.append(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Progress only; nothing to collect."""


class _PNSplit:
    """Routes windowed PN elements between the boxes during migration."""

    def __init__(
        self,
        old_targets: List[Tuple[PNOperator, int]],
        new_targets: List[Tuple[PNOperator, int]],
        window: Time,
    ) -> None:
        self.old_targets = old_targets
        self.new_targets = new_targets
        self.window = window
        self.t_split: Optional[Time] = None
        self.migrating = False
        # Positives forwarded to the new box, keyed by (payload, birth
        # timestamp).  A window-scheduled negative at ``t`` expires the
        # positive born at ``t - w - 1`` (Section 2.3); negatives whose
        # positive predates the migration are withheld from the new box.
        self._new_live: Dict[Tuple[Payload, Time], int] = {}
        self._old_watermark: Time = 0
        self._new_watermark: Time = 0

    def process(self, element: PNElement, port: int = 0) -> None:
        to_old = not self.migrating or element.timestamp < self.t_split
        if to_old:
            for operator, target_port in self.old_targets:
                operator.process(element, target_port)
        if self.migrating:
            if element.is_positive:
                key = (element.payload, element.timestamp)
                self._new_live[key] = self._new_live.get(key, 0) + 1
                forward_new = True
            else:
                key = (element.payload, element.timestamp - self.window - 1)
                live = self._new_live.get(key, 0)
                forward_new = live > 0
                if forward_new:
                    if live == 1:
                        del self._new_live[key]
                    else:
                        self._new_live[key] = live - 1
            if forward_new:
                for operator, target_port in self.new_targets:
                    operator.process(element, target_port)
        self.process_heartbeat(element.timestamp, port)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        if not self.migrating:
            if t > self._old_watermark:
                self._old_watermark = t
                for operator, target_port in self.old_targets:
                    operator.process_heartbeat(t, target_port)
            return
        old_promise = t if t < self.t_split else MAX_TIME
        if old_promise > self._old_watermark:
            self._old_watermark = old_promise
            for operator, target_port in self.old_targets:
                operator.process_heartbeat(min(old_promise, MAX_TIME), target_port)
        if t > self._new_watermark:
            self._new_watermark = t
            for operator, target_port in self.new_targets:
                operator.process_heartbeat(t, target_port)


def run_pn_migration(
    inputs: Dict[str, List[PNElement]],
    windows: Dict[str, Time],
    old_box: PNBox,
    new_box: PNBox,
    migrate_at: Time,
) -> Tuple[List[PNElement], PNMigrationReport]:
    """Run a PN query over finite inputs with one GenMig migration.

    Args:
        inputs: per source, the raw positive elements in timestamp order.
        windows: per source, the time-based window size.
        old_box / new_box: snapshot-equivalent PN plans.
        migrate_at: application time at which the migration is triggered.

    Returns:
        The accepted output (old box's results followed by the new box's,
        per the reference-point rule) and the migration report.
    """
    global_window = max(windows.values())
    old_sink = _ReferencePointSink()
    new_sink = _ReferencePointSink()
    old_box.root.attach_sink(old_sink)
    new_box.root.attach_sink(new_sink)

    splits: Dict[str, _PNSplit] = {}
    window_ops: Dict[str, PNWindow] = {}
    for source in inputs:
        split = _PNSplit(
            old_box.taps.get(source, []),
            new_box.taps.get(source, []),
            windows[source],
        )
        window_op = PNWindow(windows[source], name=f"pn-window[{source}]")
        window_op.subscribe(_SplitAdapter(split), 0)
        splits[source] = split
        window_ops[source] = window_op

    merged: List[Tuple[Time, int, str, PNElement]] = []
    sequence = 0
    for source, elements in inputs.items():
        for element in elements:
            merged.append((element.timestamp, sequence, source, element))
            sequence += 1
    merged.sort(key=lambda item: (item[0], item[1]))

    last_seen: Dict[str, Time] = {source: 0 for source in inputs}
    t_split: Optional[Time] = None
    triggered_at: Time = migrate_at
    completed_at: Optional[Time] = None

    for timestamp, _, source, element in merged:
        if t_split is None and timestamp >= migrate_at:
            # Arm the migration: Algorithm 1's split time, PN flavour.
            # max(t_Si) + w + 1 + EPSILON: the half chronon before + 2.
            t_split = half_before(max(last_seen.values()) + global_window + 2)
            for split in splits.values():
                split.t_split = t_split
                split.migrating = True
            old_sink.accept_below = t_split
            new_sink.accept_above = t_split
        last_seen[source] = timestamp
        # Advance all inputs to the global clock before processing, so
        # expirations below ``timestamp`` are applied first (global
        # temporal processing order).
        for window_op in window_ops.values():
            window_op.process_heartbeat(timestamp, 0)
        window_ops[source].process(element, 0)
        if t_split is not None and completed_at is None:
            if min(last_seen.values()) >= t_split:
                completed_at = timestamp
    for window_op in window_ops.values():
        window_op.process_heartbeat(MAX_TIME, 0)
    if t_split is None:
        raise RecoveryError(
            "the input ended before the migration could be triggered"
        )
    if completed_at is None:
        completed_at = max(last_seen.values())

    old_box.root.detach_sink(old_sink)
    new_box.root.detach_sink(new_sink)
    output = old_sink.accepted + new_sink.accepted
    report = PNMigrationReport(
        t_split=t_split,
        triggered_at=triggered_at,
        completed_at=completed_at,
        old_accepted=len(old_sink.accepted),
        new_accepted=len(new_sink.accepted),
        old_rejected=old_sink.rejected,
        new_rejected=new_sink.rejected,
    )
    return output, report


class _SplitAdapter(PNOperator):
    """Wraps a :class:`_PNSplit` behind the PNOperator input protocol."""

    def __init__(self, split: _PNSplit) -> None:
        super().__init__(arity=1, name="pn-split")
        self._split = split

    def _on_element(self, element: PNElement, port: int) -> None:
        self._split.process(element, port)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        if t <= self._watermarks[port]:
            return
        self._watermarks[port] = t
        self._split.process_heartbeat(t, port)
        self._advance()
