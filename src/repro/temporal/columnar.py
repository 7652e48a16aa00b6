"""Struct-of-arrays batches: the columnar twin of :class:`Batch`.

A :class:`ColumnarBatch` carries the same logical run of stream elements
as a row-wise :class:`~repro.temporal.batch.Batch`, but stores it as four
parallel arrays — start timestamps, end timestamps, payload rows and
Parallel-Track flags — instead of a list of boxed
:class:`~repro.temporal.element.StreamElement` objects.  The compiled
stateful kernels (hash-join probe, window assignment)
iterate these arrays directly, skipping one attribute dereference and two
object allocations (element and interval) per element per operator.

Three design points keep the columnar path *observably identical* to the
element path it accelerates:

* **Subclass, not sibling.**  ``ColumnarBatch`` *is a* :class:`Batch`;
  every consumer that only knows the row-wise protocol keeps working
  unchanged, and operators opt into the fast path with one
  ``isinstance`` check.

* **``elements`` is the materialisation boundary.**  The inherited
  ``elements`` slot is shadowed by a lazy property that builds (and
  caches) the ``StreamElement`` list on first touch.  The sanitizer, the
  output gate, selections, projections and any operator without a
  columnar fast path all read ``batch.elements`` and transparently fall
  back to rows; operators with a columnar fast path never touch it.

* **Columns are read through accessors.**  Code outside ``temporal/``
  reads ``starts`` / ``ends`` / ``rows`` / ``flags``, never the
  underscore slots — lint rule ``RLB005`` enforces this, so the
  internal layout can change without a tree-wide audit.

The columns are plain lists: ``Time`` is ``int | float`` (migration
split times are half chronons, Remark 3 of the paper), which no packed
``array`` can hold, and the probe kernels read whole payload rows.

A batch still contains at least one element — a "watermark-only batch"
is not representable; watermark-only progress travels as heartbeats, and
:class:`Batch` (hence this class) rejects empty runs by construction.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from .batch import Batch, validate_run
from .element import Payload, StreamElement
from .interval import TimeInterval
from .time import Time


class ColumnarBatch(Batch):
    """A batch stored as parallel start/end/row/flag arrays.

    The validating constructor mirrors :class:`Batch`; the engine hot
    path uses the trusted :meth:`from_elements` / :meth:`from_columns`
    classmethods instead.
    """

    __slots__ = ("_starts", "_ends", "_rows", "_flags", "_cached")

    def __init__(
        self,
        elements: Sequence[StreamElement],
        watermark: Optional[Time] = None,
        source: Optional[str] = None,
    ) -> None:
        items, watermark, uniform = validate_run(elements, watermark)
        self._init_from_elements(items, watermark, source, uniform)

    def _init_from_elements(
        self,
        items: List[StreamElement],
        watermark: Time,
        source: Optional[str],
        uniform: bool,
    ) -> None:
        self._starts = [e.interval.start for e in items]
        self._ends = [e.interval.end for e in items]
        self._rows = [e.payload for e in items]
        if any(e.flag is not None for e in items):
            self._flags: Optional[List[Optional[str]]] = [e.flag for e in items]
        else:
            self._flags = None
        self._cached: Optional[List[StreamElement]] = items
        self.watermark = watermark
        self.source = source
        self._uniform = uniform

    # ------------------------------------------------------------------ #
    # Trusted constructors (engine hot path)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_elements(
        cls,
        elements: List[StreamElement],
        watermark: Time,
        source: Optional[str],
        uniform: bool,
    ) -> "ColumnarBatch":
        """Column-extract a pre-validated run (skips ordering checks)."""
        batch = cls.__new__(cls)
        batch._init_from_elements(elements, watermark, source, uniform)
        return batch

    @classmethod
    def from_columns(
        cls,
        starts: List[Time],
        ends: List[Time],
        rows: List[Payload],
        flags: Optional[List[Optional[str]]],
        watermark: Time,
        source: Optional[str],
        uniform: bool,
    ) -> "ColumnarBatch":
        """Wrap pre-validated parallel columns (skips all checks)."""
        batch = cls.__new__(cls)
        batch._starts = starts
        batch._ends = ends
        batch._rows = rows
        batch._flags = flags
        batch._cached = None
        batch.watermark = watermark
        batch.source = source
        batch._uniform = uniform
        return batch

    # ------------------------------------------------------------------ #
    # The materialisation boundary
    # ------------------------------------------------------------------ #

    @property  # shadows the ``elements`` slot inherited from Batch
    def elements(self) -> List[StreamElement]:
        """The run as boxed elements, built lazily and cached.

        Every row-wise consumer (sanitizer, output gate, selections,
        projections, operators without a columnar fast path) reads this
        property; the columnar fast paths never do.
        """
        cached = self._cached
        if cached is None:
            flags = self._flags
            if flags is None:
                cached = [
                    StreamElement(row, TimeInterval(s, e))
                    for row, s, e in zip(self._rows, self._starts, self._ends)
                ]
            else:
                cached = [
                    StreamElement(row, TimeInterval(s, e), flag)
                    for row, s, e, flag in zip(
                        self._rows, self._starts, self._ends, flags
                    )
                ]
            self._cached = cached
        return cached

    # ------------------------------------------------------------------ #
    # Columnar read API (the only sanctioned access, per RLB005)
    # ------------------------------------------------------------------ #

    @property
    def starts(self) -> List[Time]:
        """The ``t_S`` column."""
        return self._starts

    @property
    def ends(self) -> List[Time]:
        """The ``t_E`` column."""
        return self._ends

    @property
    def rows(self) -> List[Payload]:
        """The payload rows (each row stays a whole tuple)."""
        return self._rows

    @property
    def flags(self) -> Optional[List[Optional[str]]]:
        """The PT-flag column, or ``None`` when every element is unflagged."""
        return self._flags

    # ------------------------------------------------------------------ #
    # Batch protocol overrides (avoid materialisation)
    # ------------------------------------------------------------------ #

    @property
    def first_start(self) -> Time:
        return self._starts[0]

    @property
    def last_start(self) -> Time:
        return self._starts[-1]

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self._starts)

    def __repr__(self) -> str:
        span = (
            f"@{self.first_start}"
            if self._uniform
            else f"[{self.first_start}..{self.last_start}]"
        )
        src = f" source={self.source!r}" if self.source else ""
        return (
            f"ColumnarBatch({len(self._starts)} elements {span}, "
            f"wm={self.watermark}{src})"
        )

    def with_elements(self, elements: List[StreamElement]) -> Batch:
        """A row-wise batch of transformed elements (same watermark/source).

        Element-wise rewrites have already paid the materialisation cost,
        so the result is a plain :class:`Batch` — columnar layout would
        buy nothing downstream of a row-wise transformation.
        """
        return Batch._trusted(elements, self.watermark, self.source, self._uniform)

    def runs(self) -> Iterator["ColumnarBatch"]:
        """Split into maximal uniform-start sub-runs, staying columnar.

        Sub-runs are column slices (rows shared by reference); watermark
        placement matches :meth:`Batch.runs` exactly — non-final sub-runs
        promise their own start, the final one inherits the batch's
        trailing watermark.
        """
        if self._uniform:
            yield self
            return
        starts = self._starts
        flags = self._flags
        n = len(starts)
        i = 0
        while i < n:
            start = starts[i]
            j = i + 1
            while j < n and starts[j] == start:
                j += 1
            watermark = self.watermark if j == n else start
            yield ColumnarBatch.from_columns(
                starts[i:j],
                self._ends[i:j],
                self._rows[i:j],
                flags[i:j] if flags is not None else None,
                watermark,
                self.source,
                True,
            )
            i = j
