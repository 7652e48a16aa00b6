"""Query engine: boxes, routers, schedulers, the executor, metrics."""

from .box import Box, InputPort, OutputGate, Router
from .compose import MaterializedStream, materialize
from .executor import MigrationError, QueryExecutor
from .metrics import MetricsRecorder, MetricsSeries
from .queues import SourceQueue
from .scheduler import GlobalOrderScheduler, RoundRobinScheduler, Scheduler
from .statistics import RateEstimator, SelectivityEstimator, StatisticsCatalog

__all__ = [
    "Box",
    "MaterializedStream",
    "GlobalOrderScheduler",
    "InputPort",
    "MetricsRecorder",
    "MetricsSeries",
    "MigrationError",
    "OutputGate",
    "QueryExecutor",
    "RateEstimator",
    "RoundRobinScheduler",
    "Scheduler",
    "SelectivityEstimator",
    "SourceQueue",
    "StatisticsCatalog",
    "materialize",
]
