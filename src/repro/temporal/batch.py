"""Batches: ordered runs of stream elements with a trailing watermark.

A :class:`Batch` is the engine's unit of bulk data flow — an ordered run
of :class:`~repro.temporal.element.StreamElement`\\ s whose start
timestamps are monotone non-decreasing, closed by a *trailing watermark*:
the promise that no later element of the same stream will start below it.
Moving batches instead of single elements amortises the Python-level
per-element protocol cost (port checks, watermark bookkeeping, subscriber
dispatch) that dominates the interpreter hot path, without weakening the
ordering guarantees operators rely on.

Two invariants make batch processing *observably identical* to the
element-at-a-time protocol it replaces:

* **Monotonicity** — element starts never decrease within a batch, so the
  per-port watermark rule of Section 2.2 holds element by element.
* **Trailing watermark** — ``watermark >= last start``; by default it
  equals the last element's start, in which case the batch promises
  nothing beyond what its own elements already imply (a heartbeat at the
  last start is a no-op for any operator that just consumed the run).

A batch whose elements all share one start timestamp (``uniform_start``)
is the currency of the executor's ingestion loop: within such a run no
watermark can move between elements, which is what lets operators probe
and purge their state once per run instead of once per element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from .element import StreamElement
from .time import Time

if TYPE_CHECKING:
    from .columnar import ColumnarBatch


def validate_run(
    elements: Sequence[StreamElement], watermark: Optional[Time]
) -> Tuple[List[StreamElement], Time, bool]:
    """Check a run for the two batch invariants (module docstring).

    Returns ``(elements as a list, trailing watermark, uniform_start)``,
    the watermark defaulting to the last element's start; raises
    ``ValueError`` on an empty run, a decreasing start or a watermark
    below the last start.  The validating constructors of both batch
    layouts share it.
    """
    items: List[StreamElement] = list(elements)
    if not items:
        raise ValueError("a batch must contain at least one element")
    last = items[0].start
    uniform = True
    for element in items:
        start = element.start
        if start < last:
            raise ValueError(f"batch elements out of order: {start} after {last}")
        if start != last:
            uniform = False
        last = start
    if watermark is None:
        watermark = last
    elif watermark < last:
        raise ValueError(
            f"batch watermark {watermark} below last element start {last}"
        )
    return items, watermark, uniform


class Batch:
    """An ordered run of stream elements plus a trailing watermark.

    Args:
        elements: the run, in non-decreasing start-timestamp order.
        watermark: promise that no later element starts below this value;
            defaults to the last element's start timestamp.
        source: optional name of the source stream the run belongs to.
    """

    __slots__ = ("elements", "watermark", "source", "_uniform")

    def __init__(
        self,
        elements: Sequence[StreamElement],
        watermark: Optional[Time] = None,
        source: Optional[str] = None,
    ) -> None:
        self.elements, self.watermark, self._uniform = validate_run(
            elements, watermark
        )
        self.source = source

    @classmethod
    def _trusted(
        cls,
        elements: List[StreamElement],
        watermark: Time,
        source: Optional[str],
        uniform: bool,
    ) -> "Batch":
        """Internal constructor skipping validation (engine hot path)."""
        batch = cls.__new__(cls)
        batch.elements = elements
        batch.watermark = watermark
        batch.source = source
        batch._uniform = uniform
        return batch

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def first_start(self) -> Time:
        """Start timestamp of the first element."""
        return self.elements[0].start

    @property
    def last_start(self) -> Time:
        """Start timestamp of the last element."""
        return self.elements[-1].start

    @property
    def uniform_start(self) -> bool:
        """True when every element shares one start timestamp."""
        return self._uniform

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        span = (
            f"@{self.first_start}"
            if self._uniform
            else f"[{self.first_start}..{self.last_start}]"
        )
        src = f" source={self.source!r}" if self.source else ""
        return f"Batch({len(self.elements)} elements {span}, wm={self.watermark}{src})"

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def with_elements(self, elements: List[StreamElement]) -> "Batch":
        """A batch of transformed elements keeping watermark and source.

        Intended for element-wise interval/payload rewrites (window
        operators) that preserve start timestamps and hence ordering.
        """
        return Batch._trusted(elements, self.watermark, self.source, self._uniform)

    def to_columnar(self) -> "ColumnarBatch":
        """This run in struct-of-arrays layout (no copy of the payloads).

        Returns a :class:`~repro.temporal.columnar.ColumnarBatch`, the
        input currency of the compiled stateful kernels; already-columnar
        batches return themselves.
        """
        from .columnar import ColumnarBatch

        if isinstance(self, ColumnarBatch):
            return self
        return ColumnarBatch.from_elements(
            self.elements, self.watermark, self.source, self._uniform
        )

    def runs(self) -> Iterator["Batch"]:
        """Split into maximal uniform-start sub-runs (watermark on the last).

        Every sub-run except the final one carries its own start as the
        trailing watermark — promising exactly what the next sub-run's
        first element implies anyway; the final sub-run inherits the
        batch's full trailing watermark.
        """
        if self._uniform:
            yield self
            return
        elements = self.elements
        n = len(elements)
        i = 0
        while i < n:
            start = elements[i].start
            j = i + 1
            while j < n and elements[j].start == start:
                j += 1
            watermark = self.watermark if j == n else start
            yield Batch._trusted(elements[i:j], watermark, self.source, True)
            i = j
