"""Window operators: they give elements their validity (Section 2.2).

A time-based sliding window of size ``w`` extends the validity of every
time instant of an incoming element by ``w`` units; for the common unit
interval ``[t_S, t_S+1)`` this yields ``[t_S, t_S+1+w)``, and in the general
(nested-query) case ``[t_S, t_E)`` becomes ``[t_S, t_E+w)``.  Windows bound
state and make stateful operators non-blocking over infinite streams.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, Time
from .base import Operator, StatelessOperator


class _MappingWindow(StatelessOperator):
    """The element-wise (stateless) window variants: a validity rewrite.

    Each variant states its rewrite twice — :meth:`_apply` on a boxed
    element (the per-element path) and :meth:`_map_batch` over the ``t_E``
    column alone — so a run reaches the stateful kernels downstream as
    columns, without a single element being boxed.
    """

    category = "window"


class TimeWindow(_MappingWindow):
    """A time-based sliding window of ``size`` application-time units."""

    def __init__(self, size: Time, name: str = "") -> None:
        super().__init__(name=name or f"window[{size}]")
        if size < 0:
            raise ValueError(f"window size must be non-negative, got {size}")
        self.size = size

    def _apply(self, element: StreamElement) -> StreamElement:
        return element.with_interval(element.interval.extend(self.size))

    def _map_batch(self, batch: Batch) -> Batch:
        size = self.size
        return Batch.from_columns(
            batch.starts,
            [end + size for end in batch.ends],
            batch.rows,
            batch.flags,
            batch.watermark,
            batch.source,
            batch.uniform_start,
        )


class NowWindow(_MappingWindow):
    """The *now* window: validity restricted to single instants.

    For unit-interval input this is the identity; for longer intervals it
    passes them through unchanged (each instant extended by zero units).
    """

    def _apply(self, element: StreamElement) -> StreamElement:
        return element

    def _map_batch(self, batch: Batch) -> Batch:
        return batch


class UnboundedWindow(_MappingWindow):
    """The unbounded window: elements never expire.

    Corresponds to ``RANGE UNBOUNDED`` in CQL.  Use with care: downstream
    stateful operators will accumulate state for the whole stream life.
    """

    def _apply(self, element: StreamElement) -> StreamElement:
        return element.with_interval(TimeInterval(element.start, MAX_TIME))

    def _map_batch(self, batch: Batch) -> Batch:
        return Batch.from_columns(
            batch.starts,
            [MAX_TIME] * len(batch),
            batch.rows,
            batch.flags,
            batch.watermark,
            batch.source,
            batch.uniform_start,
        )


class CountWindow(Operator):
    """A count-based sliding window over the last ``size`` elements.

    An element is valid from its own start timestamp until the start
    timestamp of the element ``size`` positions later, so every snapshot
    contains exactly the ``size`` most recent elements.  Because the end of
    an element's validity is only known when its successor arrives, output
    is delayed by ``size`` elements; the terminal heartbeat flushes the tail
    with unbounded validity.
    """

    def __init__(self, size: int, name: str = "") -> None:
        super().__init__(arity=1, name=name or f"count-window[{size}]", ordered_output=False)
        if size < 1:
            raise ValueError(f"count window size must be >= 1, got {size}")
        self.size = size
        self._pending: Deque[StreamElement] = deque()

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "window")
        self._pending.append(element)
        if len(self._pending) > self.size:
            expired = self._pending.popleft()
            end = max(element.start, expired.start + 1)
            self._stage(expired.with_interval(TimeInterval(expired.start, end)))

    def _on_heartbeat(self, t: Time, port: int) -> None:
        if t >= MAX_TIME:
            while self._pending:
                expired = self._pending.popleft()
                self._stage(expired.with_interval(TimeInterval(expired.start, MAX_TIME)))

    def _output_watermark(self, watermark: Time) -> Time:
        if self._pending:
            return min(watermark, self._pending[0].start)
        return watermark

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The elements still waiting for their successor."""
        self._check_port(port)
        return list(self._pending)
