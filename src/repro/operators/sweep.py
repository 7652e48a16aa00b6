"""Debug switch of the state containers, and the coalesce operator's tables.

``DEBUG`` makes every stateful operator cross-check its purges and its
running payload-value count (the Figure 5 memory metric) from the
inside, raising on divergence: the join sides
(:class:`~repro.operators.colstate.ColumnarJoinState`) against a scan of
their live buckets, the aggregate's incremental finalisation against a
rescan-and-refold of its open elements, the distinct and difference
purges and :meth:`FifoSweepTable.evict_until` against the condition they
purge by, and every running count against a recount.  The property
suites run with it on.

:class:`FifoSweepTable` holds payload-keyed FIFO bags evicted in start-
timestamp order with arbitrary mid-life removal on match — the coalesce
operator's M0/M1 tables.  Its eviction pops a start-ordered index, so a
watermark advance visits exactly the entries that leave.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..temporal.element import Payload, StreamElement
from ..temporal.time import Time

#: When true, every indexed operation self-checks against the scan result.
DEBUG = False


def set_debug(enabled: bool) -> None:
    """Toggle internal cross-checking of the indexed containers."""
    global DEBUG
    DEBUG = enabled


def _payload_values(element: StreamElement) -> int:
    return len(element.payload)


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
        self._values += _payload_values(element)

    def match(self, payload: Payload) -> Optional[StreamElement]:
        """Pop the oldest entry of ``payload``, or ``None`` if absent."""
        bag = self._bags.get(payload)
        if not bag:
            return None
        seq = bag.popleft()
        if not bag:
            del self._bags[payload]
        element = self._live.pop(seq)
        self._values -= _payload_values(element)
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
            self._values -= _payload_values(element)
        if DEBUG:
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
        if DEBUG:
            recount = sum(_payload_values(e) for e in self)
            assert self._values == recount, "fifo sweep value count drifted"
        return self._values

    def __iter__(self) -> Iterator[StreamElement]:
        for bag in self._bags.values():
            for seq in bag:
                yield self._live[seq]

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __repr__(self) -> str:
        return f"FifoSweepTable({len(self._live)} entries, {self._values} values)"
