"""Snapshot duplicate elimination (the delta operator).

Section 2.2: the output must never contain two elements with identical
payloads and intersecting time intervals — at every snapshot, every payload
appears at most once.  The implementation keeps, per payload, the set of
instants already covered by emitted output and forwards only the uncovered
remainder of each incoming element's validity.

Coverage is purged by an expiry heap over interval end timestamps: a
watermark advance only visits payloads that actually have coverage ending
at or below it, instead of sweeping every payload.  Stored intervals may
therefore trail the watermark by a truncation; :meth:`state_of_port`
presents the watermark-truncated view, which is what the eager per-payload
sweep used to materialise.  Subtraction is unaffected because incoming
elements never start below the watermark.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Tuple

from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.intervalset import IntervalSet
from ..temporal.time import Time
from ..temporal.batch import Batch
from . import base
from .base import Operator, StatefulOperator


class DuplicateElimination(StatefulOperator):
    """Emit each payload's validity exactly once per snapshot."""

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=1, name=name or "distinct")
        self._coverage: Dict[Payload, IntervalSet] = {}
        # One entry per emitted remainder: fires once the watermark reaches
        # its end.  A merged coverage interval's end always equals some
        # remainder's end, so every interval drop is heap-announced.
        self._expiry_heap: List[Tuple[Time, int, Payload]] = []
        self._seq = itertools.count()
        self._values = 0

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """The exact element loop, one advance per element.

        Remainders may be staged *ahead* of the watermark (a covered prefix
        pushes the uncovered rest into the future), so equal-start deferred
        releases exist here.  The amortised uniform-run path of
        :class:`StatefulOperator` would release them in heap order while
        the element path releases each in its own advance (insertion
        order); with the content stage key below those differ.
        """
        Operator.process_batch(self, batch, port)

    def _stage_key(self, element: StreamElement) -> object:
        """Canonical equal-start order: snapshots are unordered, and no two
        staged remainders share ``(start, end, payload)`` (coverage forbids
        overlap), so ``(end, repr(payload))`` is a total content key."""
        return (element.end, repr(element.payload))

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "distinct")
        covered = self._coverage.get(element.payload)
        if covered is None:
            covered = IntervalSet()
            self._coverage[element.payload] = covered
        width = len(element.payload)
        for remainder in covered.subtract(element.interval):
            self.meter.charge(1, "distinct")
            self._stage(element.with_interval(remainder))
            before = len(covered)
            covered.add(remainder)
            self._values += (len(covered) - before) * width
            heapq.heappush(
                self._expiry_heap,
                (remainder.end, next(self._seq), element.payload),
            )

    def _on_watermark(self, watermark: Time) -> None:
        heap = self._expiry_heap
        while heap and heap[0][0] <= watermark:
            _, _, payload = heapq.heappop(heap)
            covered = self._coverage.get(payload)
            if covered is None:
                continue
            before = len(covered)
            covered.expire_before(watermark)
            self._values += (len(covered) - before) * len(payload)
            if not covered:
                del self._coverage[payload]
        if base.SANITIZER is not None:
            assert all(
                interval.end > watermark
                for covered in self._coverage.values()
                for interval in covered
            ), f"{self.name}: coverage ending by {watermark} survived the purge"

    def _state_value_count(self) -> int:
        return self._values

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The coverage truncated at the purge watermark — the drain hook.

        Lazily purged payloads may hold intervals reaching below the
        watermark, but those instants are already unreachable (no input
        can start before the watermark) and the eager sweep would have cut
        them.
        """
        self._check_port(port)
        watermark = self._purged_watermark
        return [
            StreamElement(payload, TimeInterval(watermark, interval.end))
            if interval.start < watermark
            else StreamElement(payload, interval)
            for payload, covered in self._coverage.items()
            for interval in covered
        ]

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Merge drained elements into per-payload coverage — the absorb hook.

        Seeded intervals are already watermark-truncated (the drain view
        cut them), so subtraction and expiry behave as if this operator
        had processed the original input itself.
        """
        self._check_port(port)
        for element in elements:
            covered = self._coverage.get(element.payload)
            if covered is None:
                covered = IntervalSet()
                self._coverage[element.payload] = covered
            before = len(covered)
            covered.add(element.interval)
            self._values += (len(covered) - before) * len(element.payload)
            heapq.heappush(
                self._expiry_heap,
                (element.interval.end, next(self._seq), element.payload),
            )
