"""Composing queries: materialise a subquery's output as an input stream.

The executor migrates whole boxes whose inputs sit just behind the window
operators.  To study migrations of a *subplan* — a box whose inputs are
intermediate streams, the setting where Optimization 2 (shortened
``T_split``) pays off — the fixed upstream part can be run to completion
first and its output fed into a second executor as a pre-windowed source.

:func:`materialize` packages that pattern: it runs a box over its inputs,
collects the output stream, and reports the tight interval-length bound the
downstream executor needs for migration (``interval_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..streams.sinks import CollectorSink
from ..streams.stream import PhysicalStream
from ..temporal.time import Time
from .box import Box
from .executor import QueryExecutor


@dataclass
class MaterializedStream:
    """A subquery's output, ready to feed a downstream executor.

    Attributes:
        stream: the collected output as an ordered physical stream.
        interval_bound: an upper bound on the validity lengths observed —
            pass it (or any larger value) as ``QueryExecutor``'s
            ``interval_bound`` together with ``window=0`` for this source.
        max_observed_length: the exact maximum validity length, for
            reporting how conservative the declared bound is.
    """

    stream: PhysicalStream
    interval_bound: Time
    max_observed_length: Time


def materialize(
    sources: Dict[str, PhysicalStream],
    windows: Dict[str, Time],
    box: Box,
    name: str = "intermediate",
    declared_bound: Optional[Time] = None,
) -> MaterializedStream:
    """Run ``box`` over ``sources`` and collect its output as a stream.

    Args:
        sources: raw input streams of the subquery.
        windows: per-source window sizes of the subquery.
        box: the subquery's physical plan.
        name: name given to the resulting stream.
        declared_bound: the worst-case validity bound a DSMS would declare
            for this intermediate stream (defaults to the subquery's
            ``max(window) + 1``, the bound snapshot-reducible operators
            guarantee).

    Returns:
        The materialised stream with its interval bounds.

    Kept until the ROADMAP's sub-plan item replaces it.
    """
    executor = QueryExecutor(sources, windows, box)
    sink = CollectorSink(name)
    executor.add_sink(sink)
    executor.run()
    max_length: Time = 0
    for element in sink.elements:
        length = element.interval.length
        if length > max_length:
            max_length = length
    if declared_bound is None:
        declared_bound = max(windows.values()) + 1
    if max_length > declared_bound:
        raise ValueError(
            f"observed validity length {max_length} exceeds the declared "
            f"bound {declared_bound}"
        )
    return MaterializedStream(
        stream=sink.as_stream(),
        interval_bound=declared_bound,
        max_observed_length=max_length,
    )
