"""Shared test utilities.

Three pillars:

* :func:`run_query` — drive a box (optionally with a scheduled migration)
  over finite streams and return the collected output.
* :data:`STATELESS_FACTORIES` / :func:`concrete_stateless_classes` — one
  instance of every concrete ``StatelessOperator`` subclass, for the
  per-class contract suites.
* :data:`BATCH_BUILDERS` — the two ways of building the same
  :class:`~repro.temporal.batch.Batch`, for suites that must hold for
  either view a run arrives in.

Below them sit the interval, interval-set, multiset and time helpers that
only tests use (the engine reads interval bounds directly).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import Box, MetricsRecorder, QueryExecutor
from repro.engine.box import Router
from repro.engine.scheduler import Scheduler
from repro.operators import (
    CostMeter,
    NowWindow,
    Project,
    ProjectFields,
    Select,
    TimeWindow,
    UnboundedWindow,
)
from repro.operators.base import StatelessOperator
from repro.streams import CollectorSink, PhysicalStream
from repro.temporal import (
    MAX_TIME,
    MIN_TIME,
    Batch,
    IntervalSet,
    Multiset,
    Payload,
    StreamElement,
    Time,
    TimeInterval,
)


def columnar(
    elements: Sequence[StreamElement],
    watermark: Optional[Time] = None,
    source: Optional[str] = None,
) -> Batch:
    """``Batch(elements, watermark, source)`` built from its four columns
    instead, so only the column view exists until ``elements`` is read."""
    run = Batch(elements, watermark, source)
    return Batch.from_columns(
        run.starts, run.ends, run.rows, run.flags,
        run.watermark, run.source, run.uniform_start,
    )


#: The two ways of building a batch, by test id: from elements (the
#: validating constructor) and from columns.
BATCH_BUILDERS = {"Batch": Batch, "Columnar": columnar}


#: A fresh instance of every concrete ``StatelessOperator`` subclass.
STATELESS_FACTORIES = {
    TimeWindow: lambda: TimeWindow(7),
    NowWindow: NowWindow,
    UnboundedWindow: UnboundedWindow,
    Select: lambda: Select(lambda p: p[0] % 2 == 0, cost=3),
    Project: lambda: Project(lambda p: (p[0] + 1, p[0])),
    ProjectFields: lambda: ProjectFields([0, 0]),
    Router: Router,
}


def concrete_stateless_classes() -> List[type]:
    """Every public ``repro`` subclass of ``StatelessOperator``."""
    found, frontier = [], list(StatelessOperator.__subclasses__())
    while frontier:
        cls = frontier.pop()
        frontier.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and not cls.__name__.startswith("_"):
            found.append(cls)
    return found


def run_query(
    streams: Dict[str, PhysicalStream],
    windows: Dict[str, Time],
    box: Box,
    migrate_at: Optional[Time] = None,
    new_box: Optional[Box] = None,
    strategy=None,
    scheduler: Optional[Scheduler] = None,
    metrics: Optional[MetricsRecorder] = None,
    meter: Optional[CostMeter] = None,
    interval_bound: Time = 1,
) -> Tuple[List[StreamElement], QueryExecutor]:
    """Run one query to completion; returns (results, executor)."""
    sink = CollectorSink()
    executor = QueryExecutor(
        streams,
        windows,
        box,
        scheduler=scheduler,
        metrics=metrics,
        meter=meter,
        interval_bound=interval_bound,
    )
    executor.add_sink(sink)
    if migrate_at is not None:
        if new_box is None or strategy is None:
            raise ValueError("migration requires new_box and strategy")
        executor.schedule_migration(migrate_at, new_box, strategy)
    executor.run()
    return sink.elements, executor


def windowed(stream: Iterable[StreamElement], window: Time) -> List[StreamElement]:
    """Apply the time-window validity extension to a raw stream."""
    return [e.with_interval(e.interval.extend(window)) for e in stream]


def probe_instants(*streams: Sequence[StreamElement]) -> List[Time]:
    """Integer probe instants covering every snapshot of the streams."""
    from repro.temporal import critical_instants

    return critical_instants(*streams)


# ---------------------------------------------------------------------- #
# Interval, interval-set, multiset and time helpers
# ---------------------------------------------------------------------- #


def overlaps(a: TimeInterval, b: TimeInterval) -> bool:
    """Whether the two intervals share at least one instant."""
    return a.start < b.end and b.start < a.end


def is_adjacent(a: TimeInterval, b: TimeInterval) -> bool:
    """Whether the intervals touch without overlapping."""
    return a.end == b.start or b.end == a.start


def precedes(a: TimeInterval, b: TimeInterval) -> bool:
    """Whether ``a`` ends before ``b`` starts."""
    return a.end <= b.start


def merge(a: TimeInterval, b: TimeInterval) -> TimeInterval:
    """The union of two overlapping or adjacent intervals."""
    if not (overlaps(a, b) or is_adjacent(a, b)):
        raise ValueError(f"cannot merge disjoint intervals {a} and {b}")
    return TimeInterval(min(a.start, b.start), max(a.end, b.end))


def split_at(
    interval: TimeInterval, t: Time
) -> Tuple[Optional[TimeInterval], Optional[TimeInterval]]:
    """``(below, at_or_above)`` parts of ``interval`` around ``t``; ``None`` when empty."""
    if t <= interval.start:
        return None, interval
    if t >= interval.end:
        return interval, None
    return TimeInterval(interval.start, t), TimeInterval(t, interval.end)


def shift(interval: TimeInterval, delta: Time) -> TimeInterval:
    """``interval`` translated by ``delta`` time units."""
    return TimeInterval(interval.start + delta, interval.end + delta)


def instants(interval: TimeInterval) -> Iterator[int]:
    """The integer instants a bounded interval covers."""
    if interval.is_unbounded:
        raise ValueError("cannot enumerate instants of an unbounded interval")
    start = interval.start
    t = int(start) if start == int(start) else int(start) + 1
    while t < interval.end:
        yield t
        t += 1


def covers(intervals: IntervalSet, t: Time) -> bool:
    """Whether instant ``t`` lies in one of the set's intervals."""
    return any(iv.contains(t) for iv in intervals)


def covered_length(intervals: IntervalSet) -> Time:
    """Total number of time units the set covers."""
    return sum(iv.length for iv in intervals)


def max_end(intervals: IntervalSet) -> Time:
    """The largest covered end timestamp (0 when empty)."""
    return max((iv.end for iv in intervals), default=0)


def multiset_from_counts(counts: Dict[Payload, int]) -> Multiset:
    """A multiset from an explicit ``{payload: multiplicity}`` map."""
    for item, count in counts.items():
        if count < 0:
            raise ValueError(f"negative multiplicity {count} for {item}")
    return Multiset(item for item, count in counts.items() for _ in range(count))


def is_finite(t: Time) -> bool:
    """Whether ``t`` is an ordinary timestamp (not the ``MAX_TIME`` sentinel)."""
    return MIN_TIME <= t < MAX_TIME
