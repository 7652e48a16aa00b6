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

from typing import Iterator

from ..operators.base import StatefulOperator
from ..operators.sweep import FifoSweepTable
from ..temporal.element import StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import Time


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

    def state_elements(self) -> Iterator[StreamElement]:
        yield from self._m0
        yield from self._m1
