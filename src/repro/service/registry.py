"""The multi-query registry: lifecycle of continuous queries in a service.

A DSMS hosts many long-running queries at once; the registry owns them.
Each registered query — given as CQL text (resolved against the service's
catalog) or as a ready-made :class:`~repro.plans.logical.Query` — is backed
by its own :class:`~repro.engine.executor.QueryExecutor` driven online
(``push``/``advance``, never ``run``), its own metrics recorder, collector
sink and decision event log.  The physical input streams are shared: the
:class:`~repro.service.ingest.IngestHub` fans elements out to every
subscribed executor.

Lifecycle::

    register ──► ACTIVE ◄──────► PAUSED
                    │    pause/resume
                    ▼ deregister
                 STOPPED   (executor drained, removed from the registry)

A paused query stops consuming elements but keeps receiving heartbeats, so
its operator state drains and its output stays snapshot-consistent with
what it *did* consume; elements published while paused are not replayed on
resume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..cql.translate import Catalog, compile_query
from ..engine.executor import QueryExecutor
from ..engine.metrics import MetricsRecorder
from ..plans.logical import LogicalPlan, Query
from ..plans.physical import PhysicalBuilder
from ..streams.sinks import CollectorSink
from ..streams.stream import PhysicalStream
from ..temporal.element import StreamElement
from ..temporal.time import Time
from .events import QueryEventLog

ACTIVE = "active"
PAUSED = "paused"
STOPPED = "stopped"


class RegisteredQuery:
    """One continuous query under service management (the registry handle)."""

    def __init__(
        self,
        name: str,
        query: Query,
        executor: QueryExecutor,
        sink: CollectorSink,
        metrics: MetricsRecorder,
    ) -> None:
        self.name = name
        self.query = query
        #: The currently installed logical plan; updated by the controller
        #: when a migration completes.
        self.plan: LogicalPlan = query.plan
        self.executor = executor
        self.sink = sink
        self.metrics = metrics
        self.events = QueryEventLog(name, recorder=metrics)
        self.state = ACTIVE
        #: The CQL text this query was registered with, when it was
        #: registered as text.  A checkpoint stores it so restore can
        #: recompile the identical logical plan; ``Query``-object
        #: registrations leave it ``None`` and restore needs the caller
        #: to re-supply the object.
        self.cql: Optional[str] = None
        #: The plan a currently in-flight migration is moving to.
        self.pending_plan: Optional[LogicalPlan] = None
        #: Application time the last migration completed (cooldown anchor).
        self.last_migration_completed: Optional[Time] = None

    @property
    def active(self) -> bool:
        return self.state == ACTIVE

    @property
    def sources(self) -> Tuple[str, ...]:
        """The input streams this query consumes."""
        return tuple(self.query.windows)

    @property
    def results(self) -> List[StreamElement]:
        """Everything the query has delivered so far."""
        return self.sink.elements

    @property
    def migrations(self) -> List[object]:
        """Completed migration reports, oldest first."""
        return list(self.executor.migration_log)

    def __repr__(self) -> str:
        return (
            f"RegisteredQuery({self.name!r}, state={self.state}, "
            f"plan={self.plan.signature()})"
        )


class QueryRegistry:
    """Registers queries and owns their executors.

    Args:
        catalog: stream schemas for CQL registration; optional when every
            query is registered as a ready-made :class:`Query`.
        builder: shared logical-to-physical compiler (also used by the
            controller for migration target boxes).
        default_window: window applied to CQL sources without an explicit
            window specification.
        time_scale: chronons per second in CQL window units.
        bucket_size: metrics bucket width for per-query recorders.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        builder: Optional[PhysicalBuilder] = None,
        default_window: Optional[Time] = None,
        time_scale: int = 1000,
        bucket_size: Time = 1000,
    ) -> None:
        self.catalog = catalog
        self.builder = builder or PhysicalBuilder()
        self.default_window = default_window
        self.time_scale = time_scale
        self.bucket_size = bucket_size
        self._queries: Dict[str, RegisteredQuery] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        query: Union[str, Query],
        metrics: Optional[MetricsRecorder] = None,
    ) -> RegisteredQuery:
        """Register a query under ``name`` and build its executor."""
        if name in self._queries:
            raise ValueError(f"a query named {name!r} is already registered")
        cql_text: Optional[str] = None
        if isinstance(query, str):
            if self.catalog is None:
                raise ValueError("registering CQL text requires a catalog")
            cql_text = query
            query = compile_query(
                query,
                self.catalog,
                time_scale=self.time_scale,
                default_window=self.default_window,
            )
        recorder = metrics or MetricsRecorder(self.bucket_size)
        box = self.builder.build(query.plan, label=f"{name}/0")
        executor = QueryExecutor(
            {source: PhysicalStream(name=source) for source in query.windows},
            dict(query.windows),
            box,
            metrics=recorder,
        )
        sink = CollectorSink()
        executor.add_sink(sink)
        handle = RegisteredQuery(name, query, executor, sink, recorder)
        handle.cql = cql_text
        self._queries[name] = handle
        return handle

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def pause(self, name: str) -> RegisteredQuery:
        """Stop delivering elements to ``name`` (heartbeats continue)."""
        handle = self.get(name)
        if handle.state != ACTIVE:
            raise ValueError(f"query {name!r} is {handle.state}, cannot pause")
        handle.state = PAUSED
        return handle

    def resume(self, name: str) -> RegisteredQuery:
        """Resume element delivery to a paused query."""
        handle = self.get(name)
        if handle.state != PAUSED:
            raise ValueError(f"query {name!r} is {handle.state}, cannot resume")
        handle.state = ACTIVE
        return handle

    def deregister(self, name: str) -> RegisteredQuery:
        """Remove ``name`` from the service, draining its executor.

        Draining completes any in-flight migration and flushes all operator
        state, so ``handle.results`` is final afterwards.
        """
        handle = self.get(name)
        handle.executor.finish()
        handle.state = STOPPED
        del self._queries[name]
        return handle

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise KeyError(f"no query named {name!r} is registered") from None

    def names(self) -> List[str]:
        return list(self._queries)

    def handles(self) -> List[RegisteredQuery]:
        """All registered queries (active and paused), registration order."""
        return list(self._queries.values())

    def active(self) -> List[RegisteredQuery]:
        return [handle for handle in self._queries.values() if handle.active]

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    def __len__(self) -> int:
        return len(self._queries)
