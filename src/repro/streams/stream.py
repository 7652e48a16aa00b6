"""Physical streams: ordered sequences of interval-stamped elements.

Definition 3 of the paper: a physical stream is a potentially infinite
sequence of ``(e, [t_S, t_E))`` elements, non-decreasingly ordered by start
timestamps.  In this library a :class:`PhysicalStream` is the *finite*
materialisation used by sources, sinks, the reference oracle and the test
suite; the engine itself processes elements one by one in push mode.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..temporal.element import StreamElement
from ..temporal.time import Time


class StreamOrderError(ValueError):
    """Raised when a sequence of elements violates start-timestamp order."""


class PhysicalStream:
    """A finite, start-timestamp-ordered sequence of stream elements.

    Args:
        elements: the elements, already ordered non-decreasingly by ``t_S``.
        name: optional name used in diagnostics.
        validate: when ``True`` (default) the ordering property is checked
            at construction time and a :class:`StreamOrderError` is raised on
            violation.
    """

    __slots__ = ("_elements", "name")

    def __init__(
        self,
        elements: Iterable[StreamElement] = (),
        name: str = "",
        validate: bool = True,
    ) -> None:
        self._elements: List[StreamElement] = list(elements)
        self.name = name
        if validate:
            self._validate_order()

    def _validate_order(self) -> None:
        previous: Optional[Time] = None
        for position, e in enumerate(self._elements):
            if previous is not None and e.start < previous:
                raise StreamOrderError(
                    f"stream {self.name or '<anonymous>'} violates start-timestamp order "
                    f"at position {position}: {e.start} < {previous}"
                )
            previous = e.start

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, index: int) -> StreamElement:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicalStream):
            return NotImplemented
        return self._elements == other._elements

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"PhysicalStream{label}({len(self._elements)} elements)"
