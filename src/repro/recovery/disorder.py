"""Slack-bounded reordering at the ingestion edge.

The hub demands globally start-ordered input; real feeds interleave
sources with bounded skew.  :class:`DisorderBuffer` sits in front of an
:class:`~repro.service.ingest.IngestHub` and admits *bounded-disorder*
input: an element may arrive up to ``slack`` chronons after a later-
timestamped element.  Buffered elements are held in a heap and released
in global ``(start, arrival)`` order once the *reorder frontier* —
``max_seen_start - slack``, raised further by explicit transport
promises — guarantees nothing earlier can still arrive; each drain also
forwards the frontier to the hub as punctuation, so downstream windows
expire and migrations progress even while elements sit buffered.

An arrival below the frontier violates the slack contract and raises
:class:`~repro.recovery.errors.DisorderError` — the typed, loud
alternative to the silent corruption an unordered push would cause
downstream (this is the punctuation-feedback discipline of
Fernández-Moctezuma et al., applied at the edge).
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from ..service.ingest import IngestHub
from ..temporal.element import StreamElement, element
from ..temporal.time import MIN_TIME, Time
from .errors import DisorderError


class DisorderBuffer:
    """Admission buffer turning slack-bounded disorder into hub order.

    Args:
        hub: the ingestion hub to feed.
        slack: maximum admissible disorder, in chronons: an arrival's
            start may trail the maximum start seen so far by at most
            this much.  ``0`` accepts only ordered input (ties included).
    """

    def __init__(self, hub: IngestHub, slack: Time) -> None:
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        self.hub = hub
        self.slack = slack
        self._heap: List[Tuple[Time, int, str, StreamElement]] = []
        self._seq = itertools.count()
        self._max_seen: Time = MIN_TIME
        self._promise: Time = MIN_TIME
        #: Elements released to the hub so far.
        self.admitted = 0
        #: Admitted elements that arrived behind a later-timestamped one.
        self.reordered = 0

    @property
    def frontier(self) -> Time:
        """No future arrival may start below this bound."""
        bound = self._max_seen - self.slack
        if self._promise > bound:
            bound = self._promise
        return bound if bound > MIN_TIME else MIN_TIME

    @property
    def pending(self) -> int:
        """Elements currently buffered, awaiting the frontier.

        No system caller; kept until its unit tests retire (ROADMAP, audit
        follow-up).
        """
        return len(self._heap)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def publish(self, source: str, payload: object, at: Time) -> None:
        """Buffer one timestamped tuple (the hub's ``publish`` analogue)."""
        self.push(source, element(payload, at, at + 1))

    def push(self, source: str, item: StreamElement) -> None:
        """Buffer one element, releasing everything the frontier allows."""
        start = item.start
        frontier = self.frontier
        if start < frontier:
            raise DisorderError(
                f"{source!r} element at {start} exceeds the disorder slack "
                f"{self.slack}: the reorder frontier has reached {frontier} "
                f"(max start seen {self._max_seen})"
            )
        heapq.heappush(self._heap, (start, next(self._seq), source, item))
        if start > self._max_seen:
            self._max_seen = start
        elif start < self._max_seen:
            self.reordered += 1
        self._drain()

    def advance(self, t: Time) -> None:
        """Accept a transport promise: no future arrival starts before ``t``.

        A transport's punctuation raises the frontier through it; the example's
        feed has none.
        """
        if t > self._promise:
            self._promise = t
            self._drain()

    def flush(self) -> None:
        """Release everything buffered, in order (end-of-feed drain)."""
        heap = self._heap
        while heap:
            _, _, source, item = heapq.heappop(heap)
            self.hub.push(source, item)
            self.admitted += 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _drain(self) -> None:
        frontier = self.frontier
        heap = self._heap
        while heap and heap[0][0] <= frontier:
            _, _, source, item = heapq.heappop(heap)
            self.hub.push(source, item)
            self.admitted += 1
        # Punctuate: the hub may promise the frontier to every query even
        # though the elements bearing it are still buffered.
        if frontier > self.hub.clock:
            self.hub.advance(frontier)
