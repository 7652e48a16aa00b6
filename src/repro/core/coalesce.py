"""The Coalesce operator (Algorithm 3 of the paper).

Coalesce merges the outputs of the old and new box during a GenMig
migration.  The split operator cut input validities at ``T_split``; for a
result whose true validity crosses ``T_split``, the old box emits the part
ending exactly at ``T_split`` and the new box the part starting exactly
there.  Coalesce pairs such halves by payload equality (hash maps ``M0`` /
``M1``) and emits the merged element; everything else passes through a
start-timestamp heap that restores the global ordering of the combined
output stream.  Coalescing has no semantic effect — it "inverts the
negative effects of the split operator on stream rates" (correctness proof,
point 5).

One refinement over the pseudo-code: an unmatched old-side half is evicted
from ``M0`` (and emitted as-is) once the watermark passes its start
timestamp, because holding it longer could violate the ordering property of
the output stream; its new-side counterpart, if it ever arrives, is then
emitted separately, which is snapshot-equivalent to the merged form.  The
``M1`` side needs no special rule — its entries start exactly at
``T_split``, so the watermark passes them precisely when the old box has
drained and no match can arrive anymore.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..operators import base
from ..operators.base import StatefulOperator
from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import Time


class FifoSweepTable:
    """Payload-keyed FIFO bags with start-ordered eviction.

    The coalesce operator's M0/M1 tables: entries are matched away in FIFO
    order per payload, and unmatched entries are evicted once the
    watermark passes their start timestamp.  Eviction pops a global
    ``(start, insertion)`` index; consumed entries leave stale index
    entries that are skipped lazily.  Per-payload FIFO order and global
    start order agree because each table is fed from one ordered port.
    """

    __slots__ = ("_bags", "_live", "_heap", "_counter", "_values")

    def __init__(self) -> None:
        self._bags: Dict[Payload, Deque[int]] = {}
        self._live: Dict[int, StreamElement] = {}
        self._heap: List[Tuple[Time, int]] = []
        self._counter = itertools.count()
        self._values = 0

    # -- mutation ------------------------------------------------------ #

    def add(self, element: StreamElement) -> None:
        seq = next(self._counter)
        self._bags.setdefault(element.payload, deque()).append(seq)
        self._live[seq] = element
        heapq.heappush(self._heap, (element.start, seq))
        self._values += len(element.payload)

    def match(self, payload: Payload) -> Optional[StreamElement]:
        """Pop the oldest entry of ``payload``, or ``None`` if absent."""
        bag = self._bags.get(payload)
        if not bag:
            return None
        seq = bag.popleft()
        if not bag:
            del self._bags[payload]
        element = self._live.pop(seq)
        self._values -= len(element.payload)
        return element

    def evict_until(self, watermark: Time) -> List[StreamElement]:
        """Remove entries starting strictly below ``watermark``.

        Returned in global ``(start, insertion)`` order — the order in
        which they are handed to the staging heap.
        """
        evicted: List[StreamElement] = []
        heap = self._heap
        while heap and heap[0][0] < watermark:
            _, seq = heapq.heappop(heap)
            element = self._live.pop(seq, None)
            if element is None:  # consumed by an earlier match
                continue
            bag = self._bags[element.payload]
            head = bag.popleft()
            assert head == seq, "FIFO bag out of start order"
            if not bag:
                del self._bags[element.payload]
            evicted.append(element)
            self._values -= len(element.payload)
        if base.SANITIZER is not None:
            assert all(e.start >= watermark for e in self), (
                f"fifo eviction left an entry starting below {watermark}"
            )
        return evicted

    def drain(self) -> List[StreamElement]:
        """Remove and return every remaining entry (migration teardown)."""
        leftovers = [self._live[seq] for bag in self._bags.values() for seq in bag]
        self._bags.clear()
        self._live.clear()
        self._heap.clear()
        self._values = 0
        return leftovers

    # -- inspection ---------------------------------------------------- #

    def value_count(self) -> int:
        return self._values

    def __iter__(self) -> Iterator[StreamElement]:
        for bag in self._bags.values():
            for seq in bag:
                yield self._live[seq]

    def __repr__(self) -> str:
        return f"FifoSweepTable({len(self._live)} entries, {self._values} values)"


class Coalesce(StatefulOperator):
    """Merge old-box (port 0) and new-box (port 1) output at ``T_split``."""

    def __init__(self, t_split: Time, name: str = "") -> None:
        super().__init__(arity=2, name=name or f"coalesce[{t_split}]")
        self.t_split = t_split
        # M0: old-box halves ending at T_split, keyed by payload (FIFO bags).
        self._m0 = FifoSweepTable()
        # M1: new-box halves starting at T_split.
        self._m1 = FifoSweepTable()
        self.merged_count = 0
        #: Largest number of payload values ever held (tables + staging
        #: heap) — the Section 4.4 skew-sensitivity metric.  Tracked per
        #: element from the O(1) running counters.
        self.peak_value_count = 0

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "coalesce")
        held = self.state_value_count()
        if held > self.peak_value_count:
            self.peak_value_count = held
        touches_split = (
            element.end == self.t_split if port == 0 else element.start == self.t_split
        )
        if not touches_split:
            self._stage(element)
            return
        own, other = (self._m0, self._m1) if port == 0 else (self._m1, self._m0)
        partner = other.match(element.payload)
        if partner is not None:
            old_half, new_half = (partner, element) if port == 1 else (element, partner)
            merged = StreamElement(
                element.payload, TimeInterval(old_half.start, new_half.end)
            )
            self.merged_count += 1
            self._stage(merged)
        else:
            own.add(element)

    def _on_watermark(self, watermark: Time) -> None:
        # Strictly below: an entry starting exactly at the watermark can
        # still merge with a partner arriving this round without risking an
        # ordering violation.
        for table in (self._m0, self._m1):
            for entry in table.evict_until(watermark):
                self._stage(entry)

    def _state_value_count(self) -> int:
        return self._m0.value_count() + self._m1.value_count()

    def flush(self) -> None:
        """Release everything held, unmatched halves included (teardown)."""
        leftovers = self._m0.drain() + self._m1.drain()
        leftovers.sort(key=lambda e: (e.start, e.end))
        for entry in leftovers:
            self._stage(entry)
        super().flush()

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The unmatched halves waiting on ``port``: M0 on 0, M1 on 1."""
        self._check_port(port)
        return list(self._m1 if port else self._m0)
