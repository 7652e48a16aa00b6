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

from math import ceil
from typing import List, Optional, Tuple

from ..engine.box import InputPort
from ..operators.base import Operator
from ..temporal.batch import Batch
from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, MIN_TIME, Time

#: What a router's rule decides for one element: ``(old_end, new_start)``.
Route = Tuple[Optional[Time], Optional[Time]]


class _TwoSidedRouter(Operator):
    """One input, two output sides: the router below each box input.

    The paper's architecture has exactly one of these per input for the
    duration of a migration, whatever the strategy.  What differs between
    strategies is only *which part of an element goes to which box* —
    :meth:`_route`, the router's one statement of its rule — and *what
    progress each box may be promised* — :meth:`_promises`; wiring, the
    element and run paths (both derived from :meth:`_route`) and the
    per-side watermark forwarding live here once.  (Underscore-prefixed
    on purpose: tools that wrap every public operator class must not wrap
    this base under its subclasses.)
    """

    #: Meter category charged one unit per routed element; ``None`` for a
    #: router whose work the reproduced cost figures do not account.
    _category: Optional[str] = None
    #: The PT flag every old-side part carries; ``None`` keeps the input's.
    _old_flag: Optional[str] = None

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
        interval = element.interval
        start = interval.start
        end = interval.end
        payload = element.payload
        flag = element.flag
        old_end, new_start = self._route(start, end, payload)
        if old_end is not None:
            old_flag = self._old_flag or flag
            old_part = (
                element
                if old_end == end and old_flag == flag
                else StreamElement(payload, TimeInterval(start, old_end), old_flag)
            )
            for operator, target_port in self._old_targets:
                operator.process(old_part, target_port)
        if new_start is not None:
            new_part = (
                element
                if new_start == start
                else StreamElement(payload, TimeInterval(new_start, end), flag)
            )
            for operator, target_port in self._new_targets:
                operator.process(new_part, target_port)
        self._forward_watermarks(start)

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Route a whole run by its columns, forwarding each side as one run.

        No element is built.  Each side receives a batch of its parts'
        columns in the input's start order, so it sees exactly the element
        sequence it would see element-wise; only the *interleaving* between
        the two sides changes, which the boxes cannot observe (they are
        disjoint) and the merge on top of them resolves.  A side's run promises its
        own last start; the input's progress follows through
        :meth:`_forward_watermarks`, as after :meth:`process`.  This path is
        reached only when the executor batches through an active migration
        (``batch_during_migration``); the default executor ticks
        migrations element-wise through :meth:`process`.
        """
        starts = batch.starts
        ends = batch.ends
        rows = batch.rows
        n = len(starts)
        if self._category is not None:
            self.meter.charge(n, self._category)
        route = self._route
        old_picked: List[int] = []
        old_ends: List[Time] = []
        new_picked: List[int] = []
        new_starts: List[Time] = []
        for i in range(n):
            old_end, new_start = route(starts[i], ends[i], rows[i])
            if old_end is not None:
                old_picked.append(i)
                old_ends.append(old_end)
            if new_start is not None:
                new_picked.append(i)
                new_starts.append(new_start)
        flags = batch.flags
        if old_picked:
            old_flags: Optional[List[Optional[str]]] = (
                flags if self._old_flag is None else [self._old_flag] * n
            )
            _forward_run(
                self._old_targets, batch, old_picked,
                _pick(starts, old_picked, n), old_ends, old_flags,
            )
        if new_picked:
            _forward_run(
                self._new_targets, batch, new_picked,
                new_starts, _pick(ends, new_picked, n), flags,
            )
        last = starts[-1]
        self._forward_watermarks(last)
        if batch.watermark > last:
            self._forward_watermarks(batch.watermark)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        self._forward_watermarks(t)

    # ------------------------------------------------------------------ #
    # What a strategy's router decides
    # ------------------------------------------------------------------ #

    def _route(self, start: Time, end: Time, row: Payload) -> Route:
        """Where one element's validity ``[start, end)`` goes.

        Returns ``(old_end, new_start)``: the old side receives
        ``[start, old_end)``, the new side ``[new_start, end)``, each with
        the element's row; ``None`` sends nothing to that side.  This is
        the router's whole routing rule — :meth:`process` and
        :meth:`process_batch` both derive from it.
        """
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


def _pick(column: list, picked: List[int], n: int) -> list:
    """The entries ``picked`` (ascending indices) of a length-``n`` column;
    the column itself when every row is picked."""
    return column if len(picked) == n else [column[i] for i in picked]


def _forward_run(
    targets: List[InputPort],
    batch: Batch,
    picked: List[int],
    starts: List[Time],
    ends: List[Time],
    flags: Optional[List[Optional[str]]],
) -> None:
    """Hand one side its parts of ``batch`` — the rows ``picked``, with
    the side's ``starts``, ``ends`` and ``flags`` — as one run of columns."""
    n = len(batch)
    run = Batch.from_columns(
        starts,
        ends,
        _pick(batch.rows, picked, n),
        None if flags is None else _pick(flags, picked, n),
        starts[-1],
        batch.source,
        starts[0] == starts[-1],
    )
    for operator, target_port in targets:
        operator.process_batch(run, target_port)


class Split(_TwoSidedRouter):
    """Route each input element's sub-``T_split`` part old, the rest new."""

    _category = "split"

    def __init__(self, t_split: Time, name: str = "") -> None:
        super().__init__(name or f"split[{t_split}]")
        self.t_split = t_split

    def _route(self, start: Time, end: Time, row: Payload) -> Route:
        """Algorithm 2: cut the validity interval at ``T_split``.

        A part covering no time instant — a sub-chronon sliver such as
        ``[T_split, T_split + 0.5)`` — goes nowhere: the time domain is
        discrete, so dropping it changes no snapshot and keeps slivers out
        of the boxes.
        """
        t = self.t_split
        old_end = end if end < t else t
        new_start = start if start > t else t
        return (
            old_end if ceil(start) < old_end else None,
            new_start if ceil(new_start) < end else None,
        )

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

    def _route(self, start: Time, end: Time, row: Payload) -> Route:
        return (
            end if start < self.t_split else None,
            super()._route(start, end, row)[1],
        )
