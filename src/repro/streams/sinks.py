"""Sinks: terminal consumers that collect or measure query results."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import Time
from .stream import PhysicalStream


class CollectorSink:
    """Collects every result element, preserving arrival order.

    The most common sink in tests: the collected list is compared against a
    reference stream with the snapshot oracle.
    """

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.elements: List[StreamElement] = []

    def process(self, element: StreamElement, port: int = 0) -> None:
        """Receive one result element."""
        self.elements.append(element)

    def process_batch(self, batch: Batch) -> None:
        """Receive a run of results in one step."""
        self.elements.extend(batch.elements)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Heartbeats carry no results; nothing to record."""

    def as_stream(self, validate: bool = True) -> PhysicalStream:
        """Return the collected results as a physical stream.

        No system caller; kept until its unit tests retire (ROADMAP, audit
        follow-up).
        """
        return PhysicalStream(self.elements, name=self.name, validate=validate)

    def __len__(self) -> int:
        return len(self.elements)


class RateSink(CollectorSink):
    """Counts results per application-time bucket — the Figure 4 instrument.

    The *arrival clock* is supplied by the engine: a result is attributed to
    the bucket of the global application time at which it was emitted, not
    of its own start timestamp.  That matches the paper's output-rate plots,
    where the burst of buffered Parallel-Track results appears at the moment
    the buffer is flushed.
    """

    def __init__(self, bucket_size: Time, clock: Callable[[], Time], name: str = "rate-sink") -> None:
        super().__init__(name)
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = bucket_size
        self._clock = clock
        self.counts: Dict[int, int] = {}

    def process(self, element: StreamElement, port: int = 0) -> None:
        super().process(element, port)
        bucket = int(self._clock() // self.bucket_size)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1

    def process_batch(self, batch: Batch) -> None:
        """Count each result as :meth:`process` does (one clock read each).

        Batch delivery: the gate hands an in-order run whole to a sink that has
        this.
        """
        for element in batch.elements:
            self.process(element)

    def rate_series(self, first_bucket: int = 0, last_bucket: Optional[int] = None) -> List[int]:
        """Return the dense per-bucket output counts, zero-filled."""
        if not self.counts and last_bucket is None:
            return []
        top = last_bucket if last_bucket is not None else max(self.counts)
        return [self.counts.get(bucket, 0) for bucket in range(first_bucket, top + 1)]


class LatencySink(CollectorSink):
    """Records the emission delay of each result.

    The delay of a result is the difference between the global application
    time at emission and the result's own start timestamp — a proxy for
    how much buffering a migration strategy introduces (PT buffers the whole
    new-box output; GenMig's coalesce holds only skew-bounded state).
    """

    def __init__(self, clock: Callable[[], Time], name: str = "latency-sink") -> None:
        super().__init__(name)
        self._clock = clock
        self.delays: List[Time] = []

    def process(self, element: StreamElement, port: int = 0) -> None:
        super().process(element, port)
        self.delays.append(max(0, self._clock() - element.start))

    def process_batch(self, batch: Batch) -> None:
        """Record each result's delay as :meth:`process` does.

        Batch delivery: the gate hands an in-order run whole to a sink that has
        this.
        """
        for element in batch.elements:
            self.process(element)

    def max_delay(self) -> Time:
        """The worst emission delay observed (0 when nothing was emitted)."""
        return max(self.delays, default=0)


class CallbackSink:
    """Invokes a user callback per result — handy for streaming examples.

    No system caller; kept until its unit tests retire (ROADMAP, audit follow-
    up).
    """

    def __init__(self, callback: Callable[[StreamElement], None], name: str = "callback-sink") -> None:
        self.name = name
        self._callback = callback
        self.count = 0

    def process(self, element: StreamElement, port: int = 0) -> None:
        self.count += 1
        self._callback(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Heartbeats carry no results; nothing to forward."""
