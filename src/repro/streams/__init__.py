"""Stream substrate: physical streams, workload generators, sinks."""

from .sinks import CallbackSink, CollectorSink, LatencySink, RateSink
from .sources import timestamped_stream, uniform_stream
from .stream import PhysicalStream, StreamOrderError

__all__ = [
    "CallbackSink",
    "CollectorSink",
    "LatencySink",
    "PhysicalStream",
    "RateSink",
    "StreamOrderError",
    "timestamped_stream",
    "uniform_stream",
]
