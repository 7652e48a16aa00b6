"""Snapshot-consistent checkpoints of a running continuous-query service.

A checkpoint is taken at a *consistent cut*: between hub ingestion turns,
with every executor quiescent — no migration in flight, no scheduled
actions pending.  At such a cut, per-query operator state (drained through
the ``state_of_port`` hooks, absorbed back through ``absorb_state``), the
output gate and metrics epochs, and the hub's per-source offsets together
determine the service's entire observable future: restoring them and
replaying each source's feed from its recorded offset reproduces the
uninterrupted run byte for byte (the snapshot-equivalence guarantee the
integration suite asserts through ``RelationalOracle``).

The captured payload is a pure tree of builtins, written through the
pickle-free codec in :mod:`repro.recovery.snapshot`; stream elements pack
into ``array('q')``-backed time columns.
"""

from __future__ import annotations

from typing import List

from ..service import ContinuousQueryService
from ..service.registry import PAUSED
from .errors import RecoveryError
from .snapshot import pack_elements, write_snapshot

#: Identifies the payload inside the generic codec container.
FORMAT = "repro-checkpoint"
#: 2: the ``builder`` section lost ``fuse`` and no operator record names a
#: fused chain — the plans a version-1 checkpoint describes cannot be
#: rebuilt by this build.  3: the ``builder`` section lost ``columnar``.
#: 4: element timestamps are ints or half-chronon floats; a version-3
#: checkpoint taken after a migration holds rational split times.
#: 5: operator records lost ``extras`` and difference drains are
#: content-ordered; state re-enters through ``absorb_state`` alone.
#: 6: query records lost ``shards`` and no executor state has the
#: ``sharded`` shape — every query restores onto one plain executor.
FORMAT_VERSION = 6


class CheckpointManager:
    """Captures consistent snapshots of one :class:`ContinuousQueryService`.

    Usage::

        manager = CheckpointManager(service)
        size = manager.checkpoint("service.ckpt")   # between publishes
        ...
        restored = restore_service("service.ckpt")  # in a new process
    """

    def __init__(self, service: ContinuousQueryService) -> None:
        self.service = service

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #

    def capture(self) -> dict:
        """Assemble the snapshot payload at the current cut.

        Raises :class:`RecoveryError` when any query cannot be quiesced
        (migration in flight, actions pending, executor finished) or when
        a query was registered from a :class:`~repro.plans.logical.Query`
        object *and* holds state — such plans cannot be rebuilt from CQL
        text, so restore needs the caller to re-supply the object; the
        snapshot records ``cql: None`` to signal it.
        """
        registry = self.service.registry
        hub = self.service.hub
        builder = registry.builder
        catalog = registry.catalog
        queries: List[dict] = []
        for handle in registry.handles():
            executor_state = handle.executor.checkpoint_state()
            queries.append(
                {
                    "name": handle.name,
                    "cql": handle.cql,
                    "state": handle.state,
                    "plan_signature": handle.plan.signature(),
                    "last_migration_completed": handle.last_migration_completed,
                    "executor": _pack_executor_state(executor_state),
                    "metrics": handle.metrics.epoch_state(),
                    "sink": pack_elements(handle.sink.elements),
                }
            )
        return {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "hub": {
                "clock": hub.clock,
                "published": hub.published,
                "offsets": dict(hub.offsets),
            },
            "catalog": (
                {name: list(columns) for name, columns in catalog.schemas().items()}
                if catalog is not None
                else None
            ),
            "builder": builder.config(),
            "registry": {
                "default_window": registry.default_window,
                "time_scale": registry.time_scale,
                "bucket_size": registry.bucket_size,
            },
            "queries": queries,
        }

    def checkpoint(self, path: str) -> int:
        """Capture and write a snapshot file; returns its size in bytes."""
        return write_snapshot(path, self.capture())


# --------------------------------------------------------------------- #
# Executor-state packing (element objects <-> codec columns)
# --------------------------------------------------------------------- #


def _pack_executor_state(state: dict) -> dict:
    packed = dict(state)
    packed["operators"] = [
        {
            **record,
            "progress": {
                **record["progress"],
                "staged": pack_elements(record["progress"]["staged"]),
            },
            "ports": (
                None
                if record["ports"] is None
                else [pack_elements(elements) for elements in record["ports"]]
            ),
        }
        for record in state["operators"]
    ]
    return packed


def validate_snapshot(payload: object) -> dict:
    """Check the decoded payload is a checkpoint this build understands."""
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise RecoveryError("the snapshot is not a service checkpoint")
    if payload.get("version") != FORMAT_VERSION:
        raise RecoveryError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return payload


def paused_names(payload: dict) -> List[str]:
    """The queries that were paused at capture time."""
    return [query["name"] for query in payload["queries"] if query["state"] == PAUSED]
