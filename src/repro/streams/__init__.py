"""Stream substrate: physical streams, workload generators, sinks."""

from .sinks import CallbackSink, CollectorSink, LatencySink, RateSink
from .sources import (
    bursty_stream,
    explicit_stream,
    paper_workload,
    skewed_arrival,
    timestamped_stream,
    uniform_stream,
    zipf_stream,
)
from .stream import PhysicalStream, StreamOrderError, merge_tagged

__all__ = [
    "CallbackSink",
    "CollectorSink",
    "LatencySink",
    "PhysicalStream",
    "RateSink",
    "StreamOrderError",
    "bursty_stream",
    "explicit_stream",
    "merge_tagged",
    "paper_workload",
    "skewed_arrival",
    "timestamped_stream",
    "uniform_stream",
    "zipf_stream",
]
