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

A batch is one run with two views, each built from the other on first
read and cached:

* ``elements`` — the boxed ``StreamElement`` list that the sanitizer, the
  output gate, sinks and element-wise operators read;
* four parallel columns — ``starts``, ``ends``, ``rows`` and ``flags``
  (``None`` when no element carries a Parallel-Track flag) — that window
  rewrites, routers and the compiled hash-join kernels read, skipping one
  attribute dereference and two allocations per element per operator.

The columns are plain lists: ``Time`` is ``int | float`` (migration split
times are half chronons, Remark 3 of the paper), which no packed
``array`` can hold, and the probe kernels read whole payload rows.  Code
outside ``temporal/`` reads the views through their properties, never the
underscore slots (lint rule ``RLB005``).  A batch holds at least one
element; watermark-only progress travels as heartbeats.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .element import Payload, StreamElement
from .interval import TimeInterval
from .time import Time


def validate_run(
    elements: Sequence[StreamElement], watermark: Optional[Time]
) -> Tuple[List[StreamElement], Time, bool]:
    """Check a run for the two batch invariants (module docstring).

    Returns ``(elements as a list, trailing watermark, uniform_start)``,
    the watermark defaulting to the last element's start; raises
    ``ValueError`` on an empty run, a decreasing start or a watermark
    below the last start.
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

    The engine hot path skips validation through the trusted
    constructors :meth:`_trusted` (from elements) and
    :meth:`from_columns`.
    """

    __slots__ = (
        "watermark", "source", "_uniform",
        "_cached", "_starts", "_ends", "_rows", "_flags",
    )

    watermark: Time
    source: Optional[str]
    _uniform: bool
    #: The element view, or ``None`` until first read.
    _cached: Optional[List[StreamElement]]
    #: The column views, ``_starts`` ``None`` until first read (the other
    #: three are unset until then).
    _starts: Optional[List[Time]]
    _ends: List[Time]
    _rows: List[Payload]
    _flags: Optional[List[Optional[str]]]

    def __init__(
        self,
        elements: Sequence[StreamElement],
        watermark: Optional[Time] = None,
        source: Optional[str] = None,
    ) -> None:
        self._cached, self.watermark, self._uniform = validate_run(
            elements, watermark
        )
        self._starts = None
        self.source = source

    @classmethod
    def _trusted(
        cls,
        elements: List[StreamElement],
        watermark: Time,
        source: Optional[str],
        uniform: bool,
    ) -> "Batch":
        """Wrap a pre-validated element run (engine hot path)."""
        batch = cls.__new__(cls)
        batch._cached = elements
        batch._starts = None
        batch.watermark = watermark
        batch.source = source
        batch._uniform = uniform
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
    ) -> "Batch":
        """Wrap pre-validated parallel columns (skips all checks)."""
        batch = cls.__new__(cls)
        batch._cached = None
        batch._starts = starts
        batch._ends = ends
        batch._rows = rows
        batch._flags = flags
        batch.watermark = watermark
        batch.source = source
        batch._uniform = uniform
        return batch

    # ------------------------------------------------------------------ #
    # The two views
    # ------------------------------------------------------------------ #

    @property
    def elements(self) -> List[StreamElement]:
        """The run as boxed elements, built from the columns on first read."""
        cached = self._cached
        if cached is None:
            flags = self._flags
            if flags is None:
                cached = [
                    StreamElement(row, TimeInterval(s, e))
                    for row, s, e in zip(self._rows, self.starts, self._ends)
                ]
            else:
                cached = [
                    StreamElement(row, TimeInterval(s, e), flag)
                    for row, s, e, flag in zip(
                        self._rows, self.starts, self._ends, flags
                    )
                ]
            self._cached = cached
        return cached

    def _extract(self) -> List[Time]:
        """Build the four columns from the element view; returns ``starts``."""
        items = self.elements
        self._ends = [e.interval.end for e in items]
        self._rows = [e.payload for e in items]
        if any(e.flag is not None for e in items):
            self._flags = [e.flag for e in items]
        else:
            self._flags = None
        starts = self._starts = [e.interval.start for e in items]
        return starts

    @property
    def starts(self) -> List[Time]:
        """The ``t_S`` column."""
        starts = self._starts
        return self._extract() if starts is None else starts

    @property
    def ends(self) -> List[Time]:
        """The ``t_E`` column."""
        if self._starts is None:
            self._extract()
        return self._ends

    @property
    def rows(self) -> List[Payload]:
        """The payload rows (each row stays a whole tuple)."""
        if self._starts is None:
            self._extract()
        return self._rows

    @property
    def flags(self) -> Optional[List[Optional[str]]]:
        """The PT-flag column, or ``None`` when every element is unflagged."""
        if self._starts is None:
            self._extract()
        return self._flags

    # ------------------------------------------------------------------ #
    # Inspection (from whichever view exists)
    # ------------------------------------------------------------------ #

    @property
    def first_start(self) -> Time:
        """Start timestamp of the first element."""
        starts = self._starts
        return self.elements[0].start if starts is None else starts[0]

    @property
    def last_start(self) -> Time:
        """Start timestamp of the last element."""
        starts = self._starts
        return self.elements[-1].start if starts is None else starts[-1]

    @property
    def uniform_start(self) -> bool:
        """True when every element shares one start timestamp."""
        return self._uniform

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        starts = self._starts
        return len(self.elements) if starts is None else len(starts)

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        span = (
            f"@{self.first_start}"
            if self._uniform
            else f"[{self.first_start}..{self.last_start}]"
        )
        src = f" source={self.source!r}" if self.source else ""
        return f"Batch({len(self)} elements {span}, wm={self.watermark}{src})"

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def with_elements(self, elements: List[StreamElement]) -> "Batch":
        """A batch of transformed elements keeping watermark and source.

        Intended for element-wise interval/payload rewrites that preserve
        start timestamps and hence ordering.
        """
        return Batch._trusted(elements, self.watermark, self.source, self._uniform)

    def runs(self) -> Iterator["Batch"]:
        """Split into maximal uniform-start sub-runs (watermark on the last).

        Sub-runs are column slices (rows shared by reference).  Every
        sub-run except the final one carries its own start as the trailing
        watermark — promising exactly what the next sub-run's first
        element implies anyway; the final sub-run inherits the batch's
        full trailing watermark.

        No system caller (the operators split runs themselves); kept until its
        unit tests retire (ROADMAP, audit follow-up).
        """
        if self._uniform:
            yield self
            return
        starts = self.starts
        ends = self._ends
        rows = self._rows
        flags = self._flags
        n = len(starts)
        i = 0
        while i < n:
            start = starts[i]
            j = i + 1
            while j < n and starts[j] == start:
                j += 1
            yield Batch.from_columns(
                starts[i:j],
                ends[i:j],
                rows[i:j],
                flags[i:j] if flags is not None else None,
                self.watermark if j == n else start,
                self.source,
                True,
            )
            i = j
