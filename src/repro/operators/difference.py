"""Snapshot bag difference (the temporal minus operator).

At every time instant ``t`` the output snapshot is the bag difference of the
two input snapshots: a payload valid ``l`` times on the left and ``r`` times
on the right appears ``max(0, l - r)`` times.  Like aggregation, results can
only be finalised below the watermark, since future arrivals on *either*
input may change multiplicities at later instants; the operator sweeps
constant-multiplicity segments per payload as the watermark advances.

This operator is one of the stateful operators for which the Parallel Track
strategy is unsound (Note 1 in the paper) — GenMig handles it unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Tuple

from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, MIN_TIME, Time
from . import base
from .aggregate import merge_flags
from .base import StatefulOperator


class Difference(StatefulOperator):
    """Emit the per-snapshot bag difference ``left - right``.

    The operator of DifferenceNode plans; no example or benchmark plan contains
    one.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=2, name=name or "difference")
        # Per payload, the not-yet-finalised elements of each input side,
        # in insertion order.
        self._state: Dict[Payload, Tuple[List[StreamElement], List[StreamElement]]] = {}
        # Payload-level expiry index: which payload entries to visit at a
        # given watermark, one entry per element, keyed by its end.
        self._expiry_heap: List[Tuple[Time, int, Payload]] = []
        self._seq = itertools.count()
        self._values = 0
        self._frontier: Time = MIN_TIME

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "difference")
        self._insert(element, port)

    def _insert(self, element: StreamElement, port: int) -> None:
        sides = self._state.get(element.payload)
        if sides is None:
            sides = self._state[element.payload] = ([], [])
        sides[port].append(element)
        heapq.heappush(
            self._expiry_heap, (element.end, next(self._seq), element.payload)
        )
        self._values += len(element.payload)

    def _on_watermark(self, watermark: Time) -> None:
        if watermark <= self._frontier:
            return
        self._finalise(self._frontier, min(watermark, MAX_TIME))
        self._frontier = watermark
        self._purge(watermark)

    def _purge(self, watermark: Time) -> None:
        """Drop every element ending at or below ``watermark``, visiting
        only the payloads the expiry heap names, each once."""
        heap = self._expiry_heap
        state = self._state
        visited = set()
        while heap and heap[0][0] <= watermark:
            payload = heapq.heappop(heap)[2]
            sides = state.get(payload)
            if sides is None or payload in visited:
                continue
            visited.add(payload)
            left = [e for e in sides[0] if e.end > watermark]
            right = [e for e in sides[1] if e.end > watermark]
            dropped = len(sides[0]) + len(sides[1]) - len(left) - len(right)
            self._values -= dropped * len(payload)
            if left or right:
                state[payload] = (left, right)
            else:
                del state[payload]
        if base.SANITIZER is not None:
            assert all(
                e.end > watermark for sides in state.values() for side in sides for e in side
            ), f"{self.name}: difference purge left an element ending by {watermark}"

    def _state_value_count(self) -> int:
        return self._values

    def _finalise(self, lo: Time, hi: Time) -> None:
        staged: List[StreamElement] = []
        for payload, (left, right) in self._state.items():
            boundaries = {lo, hi}
            for e in left:
                if lo < e.start < hi:
                    boundaries.add(e.start)
                if lo < e.end < hi:
                    boundaries.add(e.end)
            for e in right:
                if lo < e.start < hi:
                    boundaries.add(e.start)
                if lo < e.end < hi:
                    boundaries.add(e.end)
            ordered = sorted(boundaries)
            pending: List[StreamElement] = []
            for a, b in zip(ordered, ordered[1:]):
                live_left = [e for e in left if e.interval.contains(a)]
                live_right_count = sum(1 for e in right if e.interval.contains(a))
                self.meter.charge(len(left) + len(right), "difference")
                surplus = len(live_left) - live_right_count
                if surplus <= 0:
                    continue
                segment = TimeInterval(a, b)
                flag = merge_flags([e.flag for e in live_left])
                for _ in range(surplus):
                    pending.append(StreamElement(payload, segment, flag))
            staged.extend(_merge_copies(pending))
        # Canonical cross-payload order: without it, equal-start results
        # would be staged in payload first-touch order, which depends on
        # arrival interleaving.  Snapshots are unordered bags, so sorting
        # by content is snapshot-equivalent, and it fixes the emission
        # order independently of how the inputs interleaved.  The sort is
        # stable, so equal copies of one payload keep their
        # ``_merge_copies`` order.
        staged.sort(key=lambda e: (e.start, e.end, repr(e.payload)))
        for merged in staged:
            self._stage(merged)

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The not-yet-finalised elements of one input side — the drain hook.

        Content-ordered (payloads by ``repr``, insertion order within a
        payload), so the drain does not depend on the payload dict's
        first-touch order and a drain → absorb → drain round trip is
        byte-stable; ``_finalise`` sorts across payloads anyway.
        """
        self._check_port(port)
        state = self._state
        return [
            element
            for payload in sorted(state, key=repr)
            for element in state[payload][port]
        ]

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Merge elements into one side's state — the absorb hook.

        Finalisation resumes at the purged watermark (see
        :meth:`Aggregate.absorb_state` for the lock-step argument), so
        ``restore_progress`` must run first.
        """
        self._check_port(port)
        for element in elements:
            self._insert(element, port)
        self._frontier = self._purged_watermark


def _merge_copies(results: List[StreamElement]) -> List[StreamElement]:
    """Merge adjacent equal-payload segments, respecting multiplicities.

    Results arrive segment by segment in time order; the k-th copy within a
    segment is merged with the k-th copy of an adjacent predecessor segment,
    keeping the output compact without changing any snapshot.
    """
    chains: List[StreamElement] = []
    merged: List[StreamElement] = []
    for result in results:
        extended = False
        for index, chain in enumerate(chains):
            if (
                chain.end == result.start
                and chain.payload == result.payload
                and chain.flag == result.flag
            ):
                chains[index] = chain.with_interval(TimeInterval(chain.start, result.end))
                extended = True
                break
        if not extended:
            chains.append(result)
    merged.extend(chains)
    merged.sort(key=lambda e: (e.start, e.end))
    return merged
