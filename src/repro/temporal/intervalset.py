"""Sets of disjoint time intervals with subtraction and expiration.

The snapshot duplicate elimination keeps, per payload, the set of instants
already covered by emitted output; an incoming element contributes only the
uncovered remainder of its validity.  :class:`IntervalSet` provides exactly
that: a sorted, coalesced collection of disjoint intervals supporting
``add``, ``subtract`` and watermark-driven expiration.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List

from .interval import TimeInterval
from .time import Time


class IntervalSet:
    """A mutable set of time instants stored as disjoint sorted intervals."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[TimeInterval] = ()) -> None:
        self._intervals: List[TimeInterval] = []
        for interval in intervals:
            self.add(interval)

    def __iter__(self) -> Iterator[TimeInterval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({', '.join(map(str, self._intervals))})"

    def add(self, interval: TimeInterval) -> None:
        """Add ``interval``, merging with any overlapping/adjacent entries."""
        start, end = interval.start, interval.end
        lo = bisect.bisect_left(self._intervals, start, key=lambda iv: iv.end)
        hi = lo
        while hi < len(self._intervals) and self._intervals[hi].start <= end:
            start = min(start, self._intervals[hi].start)
            end = max(end, self._intervals[hi].end)
            hi += 1
        self._intervals[lo:hi] = [TimeInterval(start, end)]

    def subtract(self, interval: TimeInterval) -> List[TimeInterval]:
        """Return the parts of ``interval`` *not* covered by this set.

        The set itself is unchanged; callers typically :meth:`add` the
        returned remainder afterwards (the duplicate-elimination pattern).
        """
        remains: List[TimeInterval] = []
        cursor = interval.start
        index = bisect.bisect_right(self._intervals, interval.start, key=lambda iv: iv.end)
        while cursor < interval.end and index < len(self._intervals):
            covered = self._intervals[index]
            if covered.start >= interval.end:
                break
            if covered.start > cursor:
                remains.append(TimeInterval(cursor, covered.start))
            cursor = max(cursor, covered.end)
            index += 1
        if cursor < interval.end:
            remains.append(TimeInterval(cursor, interval.end))
        return remains

    def expire_before(self, watermark: Time) -> None:
        """Drop every covered instant strictly below ``watermark``.

        An interval straddling the watermark is truncated, preserving the
        still-relevant future part.
        """
        kept: List[TimeInterval] = []
        for iv in self._intervals:
            if iv.end <= watermark:
                continue
            if iv.start < watermark:
                kept.append(TimeInterval(watermark, iv.end))
            else:
                kept.append(iv)
        self._intervals = kept
