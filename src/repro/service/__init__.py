"""The continuous-query service layer: many queries, one stream feed.

This package turns the single-query building blocks (executor, optimizer,
migration strategies) into a long-running multi-query service:

* :class:`QueryRegistry` — registers queries from CQL text or logical
  plans, with a full register/pause/resume/deregister lifecycle, one
  online-driven executor per query;
* :class:`IngestHub` — fans every source element and heartbeat out to all
  subscribed executors, so N queries share one physical stream;
* :class:`AutonomicController` — periodically re-optimizes each query
  with warmup, cooldown, an in-flight guard, a migration-cost term and
  automatic strategy selection, recording every decision in a per-query
  :class:`QueryEventLog`;
* :class:`ContinuousQueryService` — the facade wiring the three together.

Quickstart::

    from repro import Catalog
    from repro.service import ContinuousQueryService

    service = ContinuousQueryService(catalog=Catalog({"bids": ("item", "price")}))
    q = service.register("expensive", "SELECT * FROM bids [RANGE 60] WHERE bids.price > 10")
    for t, price in enumerate([5, 50, 500]):
        service.publish("bids", ("pen", price), t)
    service.finish()
    print(q.results, q.events.kinds())
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..cql.translate import Catalog
from ..engine.metrics import MetricsRecorder
from ..optimizer.cost import CostModel
from ..plans.logical import Query
from ..plans.physical import PhysicalBuilder
from ..temporal.element import StreamElement
from ..temporal.time import Time
from .controller import AutonomicController, ControllerPolicy
from .events import (
    COMPLETED,
    CONSIDERED,
    EVENT_KINDS,
    KEPT,
    MIGRATED,
    SKIPPED_COLD,
    SKIPPED_COOLDOWN,
    SKIPPED_IN_FLIGHT,
    SKIPPED_MIGRATION_COST,
    SKIPPED_UNSOUND_STRATEGY,
    DecisionEvent,
    QueryEventLog,
)
from .ingest import IngestHub
from .registry import ACTIVE, PAUSED, STOPPED, QueryRegistry, RegisteredQuery


class ContinuousQueryService:
    """Registry + ingest hub + autonomic controller, wired together.

    One instance is one running DSMS: register queries, publish elements,
    and the controller re-optimizes stale plans behind your back — every
    decision auditable through each query's event log.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        policy: Optional[ControllerPolicy] = None,
        builder: Optional[PhysicalBuilder] = None,
        cost_model: Optional[CostModel] = None,
        default_window: Optional[Time] = None,
        time_scale: int = 1000,
    ) -> None:
        self.registry = QueryRegistry(
            catalog=catalog,
            builder=builder,
            default_window=default_window,
            time_scale=time_scale,
        )
        self.controller = AutonomicController(
            self.registry, policy=policy, cost_model=cost_model
        )
        self.hub = IngestHub(self.registry)
        self.hub.on_progress = self.controller.on_progress

    # ------------------------------------------------------------------ #
    # Query lifecycle
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        query: Union[str, Query],
        metrics: Optional[MetricsRecorder] = None,
    ) -> RegisteredQuery:
        """Register a query and place it under autonomic control."""
        handle = self.registry.register(name, query, metrics=metrics)
        self.controller.manage(handle)
        return handle

    def pause(self, name: str) -> RegisteredQuery:
        return self.registry.pause(name)

    def resume(self, name: str) -> RegisteredQuery:
        return self.registry.resume(name)

    def deregister(self, name: str) -> RegisteredQuery:
        """Drain and remove a query; its handle stays readable."""
        handle = self.registry.get(name)
        handle = self.registry.deregister(name)
        self.controller.release(handle)
        return handle

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def publish(self, source: str, payload: object, at: Time) -> int:
        """Publish one timestamped tuple to every subscribed query."""
        return self.hub.publish(source, payload, at)

    def push(self, source: str, item: StreamElement) -> int:
        """Publish one ready-made stream element."""
        return self.hub.push(source, item)

    def advance(self, t: Time) -> None:
        """Heartbeat: promise no source delivers before ``t``."""
        self.hub.advance(t)

    def finish(self) -> None:
        """Drain all queries and complete in-flight migrations."""
        self.hub.finish()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def query(self, name: str) -> RegisteredQuery:
        return self.registry.get(name)

    def names(self) -> List[str]:
        return self.registry.names()

    def events(self, name: str) -> QueryEventLog:
        """The decision/migration audit log of one query."""
        return self.registry.get(name).events

    def results(self, name: str) -> List[StreamElement]:
        return self.registry.get(name).results


__all__ = [
    "ACTIVE",
    "AutonomicController",
    "COMPLETED",
    "CONSIDERED",
    "ContinuousQueryService",
    "ControllerPolicy",
    "DecisionEvent",
    "EVENT_KINDS",
    "IngestHub",
    "KEPT",
    "MIGRATED",
    "PAUSED",
    "QueryEventLog",
    "QueryRegistry",
    "RegisteredQuery",
    "SKIPPED_COLD",
    "SKIPPED_COOLDOWN",
    "SKIPPED_IN_FLIGHT",
    "SKIPPED_MIGRATION_COST",
    "SKIPPED_UNSOUND_STRATEGY",
    "STOPPED",
]
