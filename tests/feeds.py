"""Feed generators and stream combinators that only the tests use.

The library keeps the generators its benchmarks and examples feed from
(``uniform_stream``, ``timestamped_stream``); these shapes — Zipf skew,
bursts sharing one timestamp, application-time skew, the Section 5
four-stream workload and the global-order merge of named streams — serve
the test suite alone.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.streams import PhysicalStream, StreamOrderError, uniform_stream
from repro.temporal import CHRONON, StreamElement, Time, element


def zipf_stream(
    count: int, universe: int, exponent: float = 1.2, seed: int = 0
) -> PhysicalStream:
    """``count`` Zipf-distributed integers in ``[0, universe)``, 10 apart."""
    if universe <= 0:
        raise ValueError(f"universe must be positive, got {universe}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(universe)]
    values = rng.choices(range(universe), weights=weights, k=count)
    return PhysicalStream(
        [element(v, 10 * i, 10 * i + CHRONON) for i, v in enumerate(values)],
        validate=False,
    )


def bursty_stream(
    bursts: int,
    burst_size: int,
    burst_gap: int,
    low: int,
    high: int,
    start: Time = 0,
    seed: int = 0,
    name: str = "",
) -> PhysicalStream:
    """A stream arriving in bursts: ``burst_size`` elements share a timestamp."""
    rng = random.Random(seed)
    elements: List[StreamElement] = []
    t = start
    for _ in range(bursts):
        for _ in range(burst_size):
            elements.append(element(rng.randint(low, high), t, t + CHRONON))
        t += burst_gap
    return PhysicalStream(elements, name=name, validate=False)


def explicit_stream(items: Sequence[tuple], name: str = "") -> PhysicalStream:
    """A stream from explicit ``(payload, t_S, t_E)`` triples."""
    return PhysicalStream([element(p, t_s, t_e) for p, t_s, t_e in items], name=name)


def paper_workload(count: int = 5000, seed: int = 42) -> Dict[str, PhysicalStream]:
    """Section 5's four streams at 100 el/s: A, B in ``[0, 500]``, C, D in ``[0, 1000]``."""
    bounds = {"A": (0, 500), "B": (0, 500), "C": (0, 1000), "D": (0, 1000)}
    return {
        name: uniform_stream(count, low, high, seed=seed + offset, name=name)
        for offset, (name, (low, high)) in enumerate(bounds.items())
    }


def skewed_arrival(
    stream: PhysicalStream, skew: Time, name: Optional[str] = None
) -> PhysicalStream:
    """Shift every element of ``stream`` later by ``skew`` time units."""
    shifted = [element(e.payload, e.start + skew, e.end + skew) for e in stream]
    return PhysicalStream(shifted, name=stream.name if name is None else name, validate=False)


def is_ordered(stream: PhysicalStream) -> bool:
    """Whether ``stream`` satisfies the start-timestamp ordering property."""
    try:
        PhysicalStream(stream, name=stream.name)
    except StreamOrderError:
        return False
    return True


def merged_with(stream: PhysicalStream, *others: PhysicalStream) -> PhysicalStream:
    """Merge several ordered streams into one ordered stream."""
    merged = heapq.merge(stream, *others, key=lambda e: e.start)
    return PhysicalStream(merged, name=stream.name, validate=False)


def merge_tagged(
    streams: Sequence[Tuple[str, PhysicalStream]],
) -> Iterator[Tuple[str, StreamElement]]:
    """Merge named streams into global start-timestamp order.

    Ties go to the stream listed first, then to arrival position.
    """
    heap = [
        (e.start, index, position, name, e)
        for index, (name, stream) in enumerate(streams)
        for position, e in enumerate(stream)
    ]
    heapq.heapify(heap)
    while heap:
        _, _, _, name, e = heapq.heappop(heap)
        yield name, e
