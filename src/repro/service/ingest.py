"""The shared ingestion hub: one physical stream feed, N subscribed queries.

Every source element enters the service exactly once and is fanned out to
each registered query that consumes the source; queries that do not (and
paused queries) receive the element's timestamp as a heartbeat instead, so
their watermarks, scheduled actions and in-flight migrations keep
advancing with global time.  The hub enforces global start-timestamp order
across *all* sources — the same discipline the single-query executor's
global-order scheduler provides — which is what makes cross-source
heartbeating sound: once an element at ``t`` is published, no source will
ever deliver before ``t``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..recovery.errors import RecoveryError
from ..temporal.batch import Batch
from ..temporal.element import StreamElement, element
from ..temporal.time import MIN_TIME, Time
from .registry import QueryRegistry


class IngestHub:
    """Fans one physical stream feed out to all subscribed executors."""

    def __init__(self, registry: QueryRegistry) -> None:
        self.registry = registry
        self.clock: Time = MIN_TIME
        self.published = 0
        #: Per-source count of elements published so far.  A checkpoint
        #: records these offsets; replay-after-restore skips exactly this
        #: many elements of each source's feed.
        self.offsets: Dict[str, int] = {}
        #: Invoked with the hub clock after every publish/advance; the
        #: autonomic controller hooks its consideration rounds in here.
        self.on_progress: Optional[Callable[[Time], None]] = None

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def publish(self, source: str, payload: object, at: Time) -> int:
        """Publish one timestamped tuple (Section 2.2: ``e @ t``)."""
        return self.push(source, element(payload, at, at + 1))

    def push(self, source: str, item: StreamElement) -> int:
        """Fan one stream element out; returns the number of deliveries."""
        if item.start < self.clock:
            raise ValueError(
                f"hub requires globally ordered input: {source!r} element at "
                f"{item.start} is behind the hub clock {self.clock}"
            )
        consumers = self._fan_out(
            item.start, source, lambda executor: executor.push(source, item)
        )
        self.published += 1
        self.offsets[source] = self.offsets.get(source, 0) + 1
        self._progress()
        return consumers

    def push_batch(self, source: str, batch: Batch) -> int:
        """Fan an ordered run of one source's elements out in one turn.

        Consumers receive the whole batch (taking the executors' amortised
        batch path); queries not consuming the source — and paused ones —
        are heartbeated once per batch, to the batch's trailing watermark,
        instead of once per element.  Returns the number of deliveries
        (consumers reached times elements delivered).
        """
        first = batch.first_start
        if first < self.clock:
            raise ValueError(
                f"hub requires globally ordered input: {source!r} element at "
                f"{first} is behind the hub clock {self.clock}"
            )
        consumers = self._fan_out(
            batch.watermark, source, lambda executor: executor.push_batch(source, batch)
        )
        self.published += len(batch)
        self.offsets[source] = self.offsets.get(source, 0) + len(batch)
        self._progress()
        return consumers * len(batch)

    def advance(self, t: Time) -> None:
        """Promise that no source will deliver before ``t`` (heartbeat)."""
        if t < self.clock:
            raise ValueError(f"cannot advance the hub backwards to {t}")
        self._fan_out(t)
        self._progress()

    def _fan_out(
        self,
        t: Time,
        source: Optional[str] = None,
        deliver: Optional[Callable[[object], None]] = None,
    ) -> int:
        """Move the hub and every registered query to ``t``.

        Active consumers of ``source`` get ``deliver``; every other query
        (not consuming it, paused, or all of them when there is nothing
        to deliver) gets one all-sources progress promise, so its windows
        expire, its actions fire and its migration completes.  Returns
        the number of consumers reached.
        """
        self.clock = t
        consumers = 0
        for handle in self.registry.handles():
            executor = handle.executor
            if deliver is not None and handle.active and source in executor.sources:
                deliver(executor)
                consumers += 1
            else:
                executor.advance(None, t)
        return consumers

    def rewind(self, clock: Time, published: int, offsets: Dict[str, int]) -> None:
        """Fast-forward a *fresh* hub to a checkpoint's ingestion position.

        Only a hub that has never published may be rewound — rewinding a
        live hub would desynchronise it from its executors' watermarks —
        so restore builds a new service and calls this before replay.
        """
        if self.published or self.clock != MIN_TIME or self.offsets:
            raise RecoveryError(
                "can only rewind a fresh hub: this one has already published "
                f"{self.published} elements (clock {self.clock})"
            )
        self.clock = clock
        self.published = published
        self.offsets = dict(offsets)

    def finish(self) -> None:
        """End the session: drain every executor, complete all migrations."""
        for handle in self.registry.handles():
            handle.executor.finish()

    def _progress(self) -> None:
        if self.on_progress is not None:
            self.on_progress(self.clock)
