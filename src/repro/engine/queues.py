"""Per-source event queues feeding the schedulers.

The engine is single-threaded and push-based, so inter-operator transport
is a synchronous call; queues exist at the ingestion boundary, where a
scheduler decides in which order the sources' pending elements enter the
plan (Section 5 of the paper runs "a single thread according to the global
temporal ordering"; Remark 2 motivates supporting other policies too).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional

from ..temporal.element import StreamElement
from ..temporal.time import Time


class SourceQueue:
    """FIFO of pending elements of one named source.

    Monotonicity is enforced against the whole history of the queue, not
    just its current tail: once consumption has begun, an empty queue
    remembers the start timestamp of the last element it handed out, so a
    late push below that floor fails here — at the ingestion boundary —
    instead of deep inside an operator's watermark check.
    """

    __slots__ = ("name", "_items", "_floor")

    def __init__(self, name: str, elements: Iterable[StreamElement] = ()) -> None:
        self.name = name
        self._items: Deque[StreamElement] = deque(elements)
        self._floor: Optional[Time] = None

    def push(self, element: StreamElement) -> None:
        """Append an element; elements must arrive in start-timestamp order.

        No system caller; kept until its unit tests retire (ROADMAP, audit follow-up).
        """
        if self._items and element.start < self._items[-1].start:
            raise ValueError(
                f"source {self.name}: element at {element.start} arrives after "
                f"{self._items[-1].start}"
            )
        if self._floor is not None and element.start < self._floor:
            raise ValueError(
                f"source {self.name}: element at {element.start} arrives after "
                f"{self._floor} was already consumed"
            )
        self._items.append(element)

    def peek(self) -> Optional[StreamElement]:
        """The next pending element, or ``None`` when empty."""
        return self._items[0] if self._items else None

    def pop(self) -> StreamElement:
        """Remove and return the next pending element."""
        element = self._items.popleft()
        self._floor = element.start
        return element

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        head = self.next_timestamp
        span = "empty" if head is None else f"next={head}"
        floor = "" if self._floor is None else f", consumed through {self._floor}"
        return f"SourceQueue({self.name!r}, {len(self._items)} pending, {span}{floor})"

    @property
    def next_timestamp(self) -> Optional[Time]:
        """Start timestamp of the head element, or ``None`` when empty."""
        head = self.peek()
        return head.start if head is not None else None
