"""Workload generators for the paper's experiments.

The paper's evaluation (Section 5) streams 5000 uniformly distributed random
integers per input at 100 elements per second, with values in ``[0, 500]``
for streams A and B and ``[0, 1000]`` for streams C and D:
:func:`uniform_stream` draws each such input.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..temporal.element import element
from ..temporal.time import CHRONON, Time
from .stream import PhysicalStream


def _timestamps(count: int, rate: float, start: Time, time_scale: int) -> List[int]:
    """Evenly spaced integer timestamps for ``count`` elements at ``rate``/s.

    ``time_scale`` is the number of chronons per second of application time.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    step = time_scale / rate
    return [int(start + round(i * step)) for i in range(count)]


def uniform_stream(
    count: int,
    low: int,
    high: int,
    rate: float = 100.0,
    start: Time = 0,
    time_scale: int = 1000,
    seed: int = 0,
    name: str = "",
) -> PhysicalStream:
    """A stream of uniformly distributed random integers.

    Each raw element ``(value, t)`` becomes ``(value, [t, t+1))`` following
    the input-stream conversion rule of Section 2.2.

    Args:
        count: number of elements.
        low / high: inclusive value bounds.
        rate: elements per second of application time.
        start: application time of the first element.
        time_scale: chronons per second (1000 = millisecond chronons).
        seed: PRNG seed for reproducibility.
        name: stream name for diagnostics.
    """
    rng = random.Random(seed)
    timestamps = _timestamps(count, rate, start, time_scale)
    elements = [
        element(rng.randint(low, high), t, t + CHRONON) for t in timestamps
    ]
    return PhysicalStream(elements, name=name, validate=False)


def timestamped_stream(
    items: Sequence[tuple],
    name: str = "",
) -> PhysicalStream:
    """Build a raw stream from ``(payload, t)`` pairs via input conversion.

    Implements the Section 2.2 rule ``e @ t  ->  (e, [t, t+1))``.
    """
    elements = [element(payload, t, t + CHRONON) for payload, t in items]
    return PhysicalStream(elements, name=name)
