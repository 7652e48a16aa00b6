"""GenMig: dynamic plan migration for snapshot-equivalent continuous queries.

A from-scratch Python reproduction of

    Krämer, Yang, Cammert, Seeger, Papadias:
    "Dynamic Plan Migration for Snapshot-Equivalent Continuous Queries in
    Data Stream Systems", EDBT 2006.

The package contains a complete interval-based stream processing engine
(the substrate the paper's PIPES prototype provided), a positive-negative
twin implementation, a CQL front end, a cost-based re-optimizer — and, on
top, the paper's contribution: the **GenMig** migration strategy with its
two optimizations, next to the **Parallel Track** baseline of Zhu et al.
(SIGMOD 2004) and Megaphone-style **fluid migration**, whose one-range
setting is their **Moving States** baseline.

Quickstart::

    from repro import (
        Catalog, CollectorSink, GenMig, PhysicalBuilder, QueryExecutor,
        compile_query, timestamped_stream,
    )

    catalog = Catalog({"bids": ("item", "price")})
    query = compile_query(
        "SELECT DISTINCT item FROM bids [RANGE 10 SECONDS] WHERE price > 10",
        catalog,
    )
    box = PhysicalBuilder().build(query.plan)
    executor = QueryExecutor(
        {"bids": timestamped_stream([(("a", 42), 0), (("b", 5), 7)])},
        query.windows,
        box,
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    executor.run()
"""

from .core import (
    Coalesce,
    FluidMigration,
    GenMig,
    MigrationReport,
    MigrationStrategy,
    ParallelTrack,
    ReferencePointGenMig,
    ShortenedGenMig,
    Split,
    UnsupportedPlanError,
)
from .cql import Catalog, compile_query
from .engine import (
    Box,
    GlobalOrderScheduler,
    MetricsRecorder,
    QueryExecutor,
    RoundRobinScheduler,
)
from .operators import CostMeter
from .plans import PhysicalBuilder, Query
from .service import (
    AutonomicController,
    ContinuousQueryService,
    ControllerPolicy,
    IngestHub,
    QueryEventLog,
    QueryRegistry,
)
from .streams import (
    CollectorSink,
    LatencySink,
    PhysicalStream,
    RateSink,
    timestamped_stream,
    uniform_stream,
)
from .temporal import (
    Multiset,
    StreamElement,
    TimeInterval,
    element,
    first_divergence,
    snapshot,
    snapshot_equivalent,
)

__version__ = "1.0.0"

__all__ = [
    "AutonomicController",
    "Box",
    "Catalog",
    "Coalesce",
    "CollectorSink",
    "ContinuousQueryService",
    "ControllerPolicy",
    "CostMeter",
    "FluidMigration",
    "GenMig",
    "IngestHub",
    "QueryEventLog",
    "QueryRegistry",
    "GlobalOrderScheduler",
    "LatencySink",
    "MetricsRecorder",
    "MigrationReport",
    "MigrationStrategy",
    "Multiset",
    "ParallelTrack",
    "PhysicalBuilder",
    "PhysicalStream",
    "Query",
    "QueryExecutor",
    "RateSink",
    "ReferencePointGenMig",
    "RoundRobinScheduler",
    "ShortenedGenMig",
    "Split",
    "StreamElement",
    "TimeInterval",
    "UnsupportedPlanError",
    "__version__",
    "compile_query",
    "element",
    "first_divergence",
    "snapshot",
    "snapshot_equivalent",
    "timestamped_stream",
    "uniform_stream",
]
