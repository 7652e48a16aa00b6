"""Snapshot aggregation: scalar and grouped (the gamma operator).

Snapshot-reducibility (Definition 1) fixes the semantics: at every time
instant ``t``, the output is the relational aggregate of the snapshot at
``t``.  Because the bag of valid payloads only changes at interval
endpoints, the operator decomposes time into *constant segments*, evaluates
the aggregate once per segment, and emits ``(value, segment)`` elements.

A segment can be finalised only once the watermark has passed it — a future
element may still extend any snapshot at or beyond the watermark — so the
operator maintains a *finalisation frontier* and emits on watermark
advances.  Empty snapshots produce no output (the grouped-aggregation
convention, applied uniformly).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..temporal.element import NEW, OLD, Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, MIN_TIME, Time
from . import base
from .base import StatefulOperator
from .scalar import AggregateFunction


def merge_flags(flags: Sequence[Optional[str]]) -> Optional[str]:
    """Combine PT lineage flags of all contributors of a derived result.

    All-``NEW`` contributors yield ``NEW``; all unflagged yield ``None``;
    any other mix means some constituent predates the migration → ``OLD``.
    """
    if flags.count(None) == len(flags):  # also the empty case
        return None
    if flags.count(NEW) == len(flags):
        return NEW
    return OLD


class Aggregate(StatefulOperator):
    """Snapshot aggregation over an interval stream.

    The operator's state is its *live view* — the elements valid at the
    finalisation frontier, per group and in insertion order, with an
    end-ordered index over them — plus the *pending* elements that start
    at or beyond the frontier.  A watermark step walks the end index: it
    pays for the members that leave (and the ones the step admits), not
    for the ones that stay, and a group nobody joined or left re-emits
    its cached result without being refolded.

    Args:
        functions: the aggregate functions evaluated per snapshot.
        group_key: optional payload key extractor; when given, aggregates
            are evaluated per group and the output payload is
            ``group_key + aggregate_values``, otherwise just the values.
        name: diagnostic name.
    """

    def __init__(
        self,
        functions: Sequence[AggregateFunction],
        group_key: Optional[Callable[[Payload], Payload]] = None,
        name: str = "",
    ) -> None:
        super().__init__(arity=1, name=name or "aggregate")
        if not functions:
            raise ValueError("at least one aggregate function is required")
        self.functions = tuple(functions)
        self.group_key = group_key
        self._frontier: Time = MIN_TIME
        #: Live members per group key (ungrouped: the single key ``()``),
        #: by insertion number, in insertion order.
        self._members: Dict[Payload, Dict[int, StreamElement]] = {}
        #: ``(payload, flag)`` folded over a group's members; dropped
        #: when a member is admitted or retires.
        self._folded: Dict[Payload, Tuple[Payload, Optional[str]]] = {}
        #: ``sorted(_members, key=repr)``, the emission order; ``None``
        #: once a group has appeared or vanished since it was computed.
        self._order: Optional[List[Payload]] = None
        #: ``(end, insertion number, group key)`` of every live member.
        self._end_index: List[Tuple[Time, int, Payload]] = []
        #: ``(insertion number, element)`` of the open elements that
        #: start at or beyond the frontier: open, not yet live.
        self._pending: List[Tuple[int, StreamElement]] = []
        self._live = 0
        #: Payload values held by live and pending elements.
        self._values = 0
        self._insertions = itertools.count()

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "aggregate")
        if element.start < self._frontier:
            # Cannot happen for ordered input: the frontier trails the
            # watermark, which trails every start timestamp.
            raise ValueError(
                f"{self.name}: element starts at {element.start} before "
                f"finalisation frontier {self._frontier}"
            )
        self._pending.append((next(self._insertions), element))
        self._values += len(element.payload)

    def _on_watermark(self, watermark: Time) -> None:
        lo = self._frontier
        if watermark <= lo:
            return
        hi = min(watermark, MAX_TIME)
        checking = base.SANITIZER is not None
        if checking:
            reference = self._scan(lo, hi, self._open_elements())
        results, charged = self._sweep(lo, hi)
        if checking:
            assert (results, charged) == reference, (
                f"{self.name}: incremental finalisation of [{lo}, {hi}) "
                "diverged from the scan recomputation"
            )
        if charged:
            self.meter.charge(charged, "aggregate")
        # Every result starts below the watermark, so the advance that
        # called us would release it from the staging heap at once, in
        # (start, insertion) order — the order of this list.
        for merged in _merge_adjacent(results):
            self._emit(merged)
        self._frontier = watermark

    def _state_value_count(self) -> int:
        return self._values

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #

    def _sweep(self, lo: Time, hi: Time) -> Tuple[List[StreamElement], int]:
        """Aggregate results for every instant in ``[lo, hi)``, unmerged.

        Returns one result per non-empty group per constant segment, and
        the meter units the step owes (live members per segment).  The
        segment boundaries are read off the end index (and off pending
        starts, which only seeded state can place inside the step).
        """
        results: List[StreamElement] = []
        charged = 0
        members, folded = self._members, self._folded
        ends, pending = self._end_index, self._pending
        a = lo
        while a < hi:
            if pending:
                self._admit(a)
            b = hi
            if ends and ends[0][0] < b:
                b = ends[0][0]
            for _, waiting in pending:
                if waiting.start < b:
                    b = waiting.start
            if self._live:
                charged += self._live
                segment = TimeInterval(a, b)
                if self._order is None:
                    self._order = sorted(members, key=repr)
                for key in self._order:
                    result = folded.get(key)
                    if result is None:
                        result = folded[key] = self._fold(key, members[key].values())
                    results.append(StreamElement(result[0], segment, result[1]))
            while ends and ends[0][0] <= b:
                _, number, key = heapq.heappop(ends)
                self._values -= len(members[key].pop(number).payload)
                self._live -= 1
                folded.pop(key, None)
                if not members[key]:
                    del members[key]
                    self._order = None
            a = b
        return results, charged

    def _key_of(self, payload: Payload) -> Payload:
        if self.group_key is None:
            return ()
        key = self.group_key(payload)
        return key if isinstance(key, tuple) else (key,)

    def _fold(self, key: Payload, members) -> Tuple[Payload, Optional[str]]:
        """The output ``(payload, flag)`` of one group's members."""
        payloads = [e.payload for e in members]
        values = tuple(fn(payloads) for fn in self.functions)
        return key + values, merge_flags([e.flag for e in members])

    def _enter(self, number: int, element: StreamElement) -> bool:
        """Make ``element`` a live member; False if that breaks insertion order."""
        key = self._key_of(element.payload)
        group = self._members.get(key)
        if group is None:
            group = self._members[key] = {}
            self._order = None
        elif number < next(reversed(group)):
            return False
        group[number] = element
        self._folded.pop(key, None)
        heapq.heappush(self._end_index, (element.end, number, key))
        self._live += 1
        return True

    def _admit(self, a: Time) -> None:
        """Move the pending elements that have started by ``a`` into the live view."""
        waiting = []
        for entry in self._pending:
            if entry[1].start > a:
                waiting.append(entry)
            elif not self._enter(*entry):
                # Folds run in insertion order; elements admitted out of
                # it (seeded state need not be start-ordered) are put
                # back in place by a rescan.
                self._rebuild(a)
                return
        self._pending[:] = waiting

    def _open_elements(self) -> List[StreamElement]:
        """The pending and live elements, in insertion order.

        Keyed by insertion number: after a failed :meth:`_admit`, an
        entry already entered into the live view is still pending too.
        """
        entries = dict(self._pending)
        for group in self._members.values():
            entries.update(group)
        return [entries[number] for number in sorted(entries)]

    def _rebuild(self, at: Time) -> None:
        """Recompute the live view as of instant ``at`` from the open
        elements; those that ended by ``at`` leave the state."""
        elements = self._open_elements()
        self._members.clear()
        self._folded.clear()
        self._order = None
        self._end_index.clear()
        self._pending.clear()
        self._live = 0
        self._values = 0
        self._insertions = itertools.count()
        for element in elements:
            number = next(self._insertions)
            if element.start > at:
                self._pending.append((number, element))
            elif element.end > at:
                self._enter(number, element)
            else:
                continue
            self._values += len(element.payload)

    def _scan(
        self, lo: Time, hi: Time, elements: List[StreamElement]
    ) -> Tuple[List[StreamElement], int]:
        """What :meth:`_sweep` must return, recomputed from the open
        ``elements`` alone.

        The reference: every segment rescans and refolds all open state.
        Runs only under an installed sanitizer.

        Safety: the sanitizer's reference rescan, run after every step while
        one is installed.
        """
        results: List[StreamElement] = []
        charged = 0
        if lo >= hi:
            return results, charged
        boundaries = {lo, hi}
        for e in elements:
            if lo < e.start < hi:
                boundaries.add(e.start)
            if lo < e.end < hi:
                boundaries.add(e.end)
        ordered = sorted(boundaries)
        for a, b in zip(ordered, ordered[1:]):
            groups: Dict[Payload, List[StreamElement]] = {}
            for e in elements:
                if e.interval.contains(a):
                    groups.setdefault(self._key_of(e.payload), []).append(e)
            segment = TimeInterval(a, b)
            for key in sorted(groups, key=repr):
                charged += len(groups[key])
                payload, flag = self._fold(key, groups[key])
                results.append(StreamElement(payload, segment, flag))
        return results, charged

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The open (not yet finalised) elements — the drain hook."""
        self._check_port(port)
        return self._open_elements()

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Merge elements into the open state — the absorb hook.

        The finalisation frontier resumes at the purged watermark: the
        two trail each other in lock-step (``_on_watermark`` runs exactly
        when the purge watermark moves), so a restored operator must have
        ``restore_progress`` applied first.
        """
        self._check_port(port)
        insertions = self._insertions
        self._pending.extend((next(insertions), element) for element in elements)
        self._frontier = self._purged_watermark
        self._rebuild(self._frontier)


def _merge_adjacent(results: List[StreamElement]) -> List[StreamElement]:
    """Merge equal-payload results whose segments are adjacent.

    The segment sweep fragments output at every interval boundary even when
    the aggregate value does not change; merging within a finalisation batch
    keeps output volume proportional to actual value changes.
    """
    if len(results) < 2:
        return results
    if results[0].interval is results[-1].interval:
        # One segment (results come segment by segment): nothing is
        # adjacent to anything, only the canonical order is owed.
        return sorted(results, key=lambda e: repr(e.payload))
    pending: Dict[Tuple[Optional[str], Payload], StreamElement] = {}
    merged: List[StreamElement] = []
    for result in results:
        key = (result.flag, result.payload)
        previous = pending.get(key)
        if previous is not None and previous.end == result.start:
            pending[key] = previous.with_interval(
                TimeInterval(previous.start, result.end)
            )
        else:
            if previous is not None:
                merged.append(previous)
            pending[key] = result
    merged.extend(pending.values())
    merged.sort(key=lambda e: (e.start, e.end, repr(e.payload)))
    return merged
