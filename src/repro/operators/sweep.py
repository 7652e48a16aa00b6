"""Expiry-ordered state containers — the *sweep areas* of stateful operators.

Before this module, every stateful operator purged expired state by
scanning its full state on each watermark advance; under global
heartbeats (the default executor mode) that made steady-state processing
O(total state) per ingested element.  The containers here index state
elements by the timestamp at which they become purgeable, so a watermark
advance pops exactly the elements that actually expire — O(k log n) for k
expirations — while preserving the *observable* behaviour of the old scan
purge: identical element sets, identical iteration (insertion) order,
identical empty-bucket cleanup timing.

Two containers here cover the element-wise operators' state shapes:

* :class:`SweepArea` — a flat multiset of elements (nested-loops join
  sides, the aggregate's open list, the difference operator's per-payload
  side lists);
* :class:`FifoSweepTable` — payload-keyed FIFO bags evicted in start-
  timestamp order with arbitrary mid-life removal on match (the coalesce
  operator's M0/M1 tables).

The symmetric hash join's keyed sides live in
:class:`~repro.operators.colstate.ColumnarJoinState`, which shares the
``RetentionRule`` contract and the ``DEBUG`` cross-checks below.

Expiry honours the operator's ``retention`` override (the Parallel Track
baseline swaps the interval rule for the tuple-timestamp rule *after*
elements were inserted): :meth:`set_retention` re-keys the index in one
O(n) pass, which happens once per migration, not per watermark.

Every container also maintains an O(1) running count of the payload
values it holds (the Figure 5 memory metric), updated on insert/expire.

Debugging aids, used by the property-test suite:

* ``FORCE_SCAN`` — route every ``expire``/``evict`` call through the old
  full-scan algorithm (same removal condition, no index); a run under
  this flag is the reference the indexed run must match byte for byte.
* ``DEBUG`` — cross-check each indexed operation against the scan result
  and each running value count against a recount, raising on divergence.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..temporal.element import Payload, StreamElement
from ..temporal.time import Time

#: Maps a state element to the watermark at which it may be purged.
RetentionRule = Optional[Callable[[StreamElement], Time]]

#: When true, expiry runs the pre-index full-scan algorithm (reference
#: behaviour for equivalence tests).  Module-global on purpose: tests flip
#: it around whole runs, never mid-run.
FORCE_SCAN = False

#: When true, every indexed operation self-checks against the scan result.
DEBUG = False


def set_debug(enabled: bool) -> None:
    """Toggle internal cross-checking of the indexed containers."""
    global DEBUG
    DEBUG = enabled


def set_force_scan(enabled: bool) -> None:
    """Toggle the reference full-scan purge path."""
    global FORCE_SCAN
    FORCE_SCAN = enabled


def _payload_values(element: StreamElement) -> int:
    return len(element.payload)


class SweepArea:
    """An insertion-ordered multiset of elements with an expiry index.

    Iteration yields elements in insertion order (what the old list-based
    state did), so probe loops and ``state_elements`` observe the exact
    sequences they always observed; only the purge is driven by the index.
    """

    __slots__ = ("_elements", "_heap", "_counter", "_retention", "_values")

    def __init__(self, retention: RetentionRule = None) -> None:
        self._elements: Dict[int, StreamElement] = {}
        self._heap: List[Tuple[Time, int]] = []
        self._counter = itertools.count()
        self._retention = retention
        self._values = 0

    # -- expiry keys --------------------------------------------------- #

    def expiry_of(self, element: StreamElement) -> Time:
        """The watermark at which ``element`` becomes purgeable."""
        retention = self._retention
        return retention(element) if retention is not None else element.end

    def set_retention(self, retention: RetentionRule) -> None:
        """Install a new retention rule and re-key the expiry index."""
        self._retention = retention
        self._heap = [(self.expiry_of(e), seq) for seq, e in self._elements.items()]
        heapq.heapify(self._heap)

    # -- mutation ------------------------------------------------------ #

    def insert(self, element: StreamElement) -> None:
        """Add one element to the area."""
        seq = next(self._counter)
        self._elements[seq] = element
        heapq.heappush(self._heap, (self.expiry_of(element), seq))
        self._values += _payload_values(element)

    def expire(self, watermark: Time) -> List[StreamElement]:
        """Remove and return every element whose expiry has been reached."""
        if FORCE_SCAN:
            return self._expire_scan(watermark)
        if DEBUG:
            reference = Counter(
                e for e in self._elements.values() if self.expiry_of(e) <= watermark
            )
        expired: List[StreamElement] = []
        heap, elements = self._heap, self._elements
        while heap and heap[0][0] <= watermark:
            _, seq = heapq.heappop(heap)
            element = elements.pop(seq, None)
            if element is not None:  # stale entry: removed by a scan prune
                expired.append(element)
                self._values -= _payload_values(element)
        if DEBUG:
            assert Counter(expired) == reference, (
                f"sweep expiry diverged from scan at watermark {watermark}"
            )
        return expired

    def _expire_scan(self, watermark: Time) -> List[StreamElement]:
        """The pre-index purge: full scan, insertion order preserved."""
        return self.prune(lambda e: self.expiry_of(e) <= watermark)

    def prune(self, predicate: Callable[[StreamElement], bool]) -> List[StreamElement]:
        """Scan-remove every element satisfying ``predicate``.

        Index entries of removed elements go stale and are skipped lazily
        by later :meth:`expire` calls.
        """
        removed: List[StreamElement] = []
        for seq, element in list(self._elements.items()):
            if predicate(element):
                del self._elements[seq]
                self._values -= _payload_values(element)
                removed.append(element)
        return removed

    # -- inspection ---------------------------------------------------- #

    def as_list(self) -> List[StreamElement]:
        """An insertion-order snapshot of the content (probe-loop helper)."""
        return list(self._elements.values())

    def value_count(self) -> int:
        """Payload values held — O(1), cross-checked under ``DEBUG``."""
        if DEBUG:
            recount = sum(_payload_values(e) for e in self._elements.values())
            assert self._values == recount, "sweep value count drifted"
        return self._values

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __repr__(self) -> str:
        return f"SweepArea({len(self._elements)} elements, {self._values} values)"


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
        if FORCE_SCAN:
            return self._evict_scan(watermark)
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
        return evicted

    def _evict_scan(self, watermark: Time) -> List[StreamElement]:
        """Reference eviction: scan every bag, same (start, seq) order."""
        doomed: List[Tuple[Time, int]] = []
        for bag in self._bags.values():
            for seq in bag:
                element = self._live[seq]
                if element.start < watermark:
                    doomed.append((element.start, seq))
        doomed.sort()
        evicted: List[StreamElement] = []
        for _, seq in doomed:
            element = self._live.pop(seq)
            bag = self._bags[element.payload]
            bag.remove(seq)
            if not bag:
                del self._bags[element.payload]
            evicted.append(element)
            self._values -= _payload_values(element)
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
