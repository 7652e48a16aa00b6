"""The Split operator (Algorithm 2 of the paper).

A stateless operator inserted downstream of each input during a GenMig
migration.  It partitions every element's validity interval at the split
time ``T_split``: the part below ``T_split`` feeds the old box, the rest
the new box.  Because ``T_split`` is chosen at sub-chronon granularity
(Remark 3), it never coincides with a start or end timestamp, so the
partition is always clean.

Beyond Algorithm 2's element routing, the implementation also forwards
*watermark promises* to both sides:

* the old side processes raw start timestamps ``< T_split`` only, so its
  watermark follows the raw input — and jumps to end-of-stream the moment
  the input passes ``T_split``, which is exactly the "signal the end of all
  input streams to the old plan" step of Algorithm 1 (line 11), realised
  per input;
* every element sent to the new side starts at or after ``T_split``, so the
  new side can be promised ``T_split`` immediately.  This is what lets the
  new box release its results *during* the migration instead of buffering
  them — the smooth-output property GenMig has and Parallel Track lacks.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..engine.box import InputPort
from ..operators.base import Operator
from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import MAX_TIME, MIN_TIME, Time


def _covers_instants(interval) -> bool:
    """Whether a (possibly fractional) interval contains any time instant.

    The time domain is discrete; a fragment like ``[T_split, T_split + 0.5)``
    covers no integer instant and can be dropped without changing any
    snapshot — this keeps sub-chronon slivers out of the boxes.
    """
    if interval is None:
        return False
    return math.ceil(interval.start) < interval.end


class _TwoSidedRouter(Operator):
    """One input, two output sides: the router below each box input.

    The paper's architecture has exactly one of these per input for the
    duration of a migration, whatever the strategy.  What differs between
    strategies is only *which part of an element goes to which box* —
    :meth:`_route` — and *what progress each box may be promised* —
    :meth:`_promises`; wiring, the element and batch paths and the
    per-side watermark forwarding live here once.  (Underscore-prefixed
    on purpose: tools that wrap every public operator class must not wrap
    this base under its subclasses.)
    """

    #: Meter category charged one unit per routed element; ``None`` for a
    #: router whose work the reproduced cost figures do not account.
    _category: Optional[str] = None

    def __init__(self, name: str) -> None:
        super().__init__(arity=1, name=name, ordered_output=False)
        self._old_targets: List[InputPort] = []
        self._new_targets: List[InputPort] = []
        self._old_watermark: Time = MIN_TIME
        self._new_watermark: Time = MIN_TIME

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def connect_old(self, operator, port: int = 0) -> None:
        """Feed the old box through ``(operator, port)``."""
        self._old_targets.append((operator, port))

    def connect_new(self, operator, port: int = 0) -> None:
        """Feed the new box through ``(operator, port)``."""
        self._new_targets.append((operator, port))

    # ------------------------------------------------------------------ #
    # Input protocol (replaces the base implementation: two output sides)
    # ------------------------------------------------------------------ #

    def process(self, element: StreamElement, port: int = 0) -> None:
        if self._category is not None:
            self.meter.charge(1, self._category)
        old_part, new_part = self._route(element)
        if old_part is not None:
            for operator, target_port in self._old_targets:
                operator.process(old_part, target_port)
        if new_part is not None:
            for operator, target_port in self._new_targets:
                operator.process(new_part, target_port)
        self._forward_watermarks(element.start)

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Route a whole run, forwarding each side as one sub-batch.

        Both part streams inherit the input's start order, so each side
        sees exactly the element sequence it would see element-wise; only
        the *interleaving* between the two sides changes, which the boxes
        cannot observe (they are disjoint) and the merge on top of them
        resolves.  This path is reached only when the executor batches
        through an active migration (``batch_during_migration``); the
        default executor ticks migrations element-wise through
        :meth:`process`.
        """
        elements = batch.elements
        if self._category is not None:
            self.meter.charge(len(elements), self._category)
        route = self._route
        old_parts: List[StreamElement] = []
        new_parts: List[StreamElement] = []
        for element in elements:
            old_part, new_part = route(element)
            if old_part is not None:
                old_parts.append(old_part)
            if new_part is not None:
                new_parts.append(new_part)
        for parts, targets in (
            (old_parts, self._old_targets),
            (new_parts, self._new_targets),
        ):
            if not parts:
                continue
            side = Batch._trusted(
                parts,
                parts[-1].start,
                batch.source,
                parts[0].start == parts[-1].start,
            )
            for operator, target_port in targets:
                operator.process_batch(side, target_port)
        last = elements[-1].start
        self._forward_watermarks(last)
        if batch.watermark > last:
            self._forward_watermarks(batch.watermark)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        self._forward_watermarks(t)

    # ------------------------------------------------------------------ #
    # What a strategy's router decides
    # ------------------------------------------------------------------ #

    def _route(
        self, element: StreamElement
    ) -> Tuple[Optional[StreamElement], Optional[StreamElement]]:
        """The ``(old_part, new_part)`` of one element; ``None`` = nothing."""
        raise NotImplementedError

    def _promises(self, raw: Time) -> Tuple[Time, Time]:
        """Per-side progress promises for raw input progress ``raw``.

        The default promises the raw watermark to both sides: every
        element below it has already been routed to its side, so both
        boxes may purge and release up to it.
        """
        return raw, raw

    def _forward_watermarks(self, raw: Time) -> None:
        old_promise, new_promise = self._promises(raw)
        if old_promise > self._old_watermark:
            self._old_watermark = old_promise
            for operator, target_port in self._old_targets:
                operator.process_heartbeat(old_promise, target_port)
        if new_promise > self._new_watermark:
            self._new_watermark = new_promise
            for operator, target_port in self._new_targets:
                operator.process_heartbeat(new_promise, target_port)


class Split(_TwoSidedRouter):
    """Route each input element's sub-``T_split`` part old, the rest new."""

    _category = "split"

    def __init__(self, t_split: Time, name: str = "") -> None:
        super().__init__(name or f"split[{t_split}]")
        self.t_split = t_split

    def _route(self, element: StreamElement):
        """Algorithm 2: split the validity interval at ``T_split``."""
        below, above = element.interval.split_at(self.t_split)
        old_part = element.with_interval(below) if _covers_instants(below) else None
        new_part = element.with_interval(above) if _covers_instants(above) else None
        return old_part, new_part

    def _promises(self, raw: Time) -> Tuple[Time, Time]:
        """``raw | T_split`` below the split time, ``MAX | raw`` past it."""
        if raw < self.t_split:
            return raw, self.t_split
        return MAX_TIME, raw


class ReferencePointSplit(Split):
    """Split variant for the reference-point optimization (Section 4.5).

    The old box receives elements *unsplit* (full validity) as long as their
    start timestamp lies below ``T_split``; the new box receives the part at
    or above ``T_split`` exactly as in the standard split.  Duplicate
    suppression then happens at the output via the reference-point rule.
    """

    def _route(self, element: StreamElement):
        below, above = element.interval.split_at(self.t_split)
        old_part = element if element.start < self.t_split else None
        new_part = element.with_interval(above) if _covers_instants(above) else None
        return old_part, new_part
