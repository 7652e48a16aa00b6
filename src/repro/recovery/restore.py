"""Restore a checkpointed service and replay the tail of its feed.

Restore is a *rebuild*, not a resurrection: a fresh
:class:`~repro.service.ContinuousQueryService` is constructed with the
captured catalog/builder/registry configuration, each query is
re-registered from its recorded CQL text (so the physical plan comes out
of ``PhysicalBuilder`` exactly as it originally did — recovery never
constructs operators directly, lint rule RLB006), operator state is
absorbed back through the ``absorb_state`` hooks, and the hub is
rewound to the captured per-source offsets.  Feeding the original input
from those offsets onward then yields output byte-identical to the
uninterrupted run.

Known limitations, by design: the statistics catalog and the autonomic
controller's observation history restart empty (the controller re-enters
its warm-up phase), and a checkpoint taken *after* an autonomic migration
cannot be restored from CQL text alone — the installed plan no longer
matches the registered query, which restore detects via the recorded
plan signature and reports loudly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..cql.translate import Catalog
from ..plans.logical import Query
from ..plans.physical import PhysicalBuilder
from ..service import ContinuousQueryService
from ..service.controller import ControllerPolicy
from ..service.registry import PAUSED
from ..engine.metrics import MetricsRecorder
from ..temporal.element import StreamElement
from .checkpoint import validate_snapshot
from .errors import RecoveryError
from .snapshot import read_snapshot, unpack_elements


def restore_service(
    snapshot: Union[str, dict],
    *,
    queries: Optional[Dict[str, Query]] = None,
    policy: Optional[ControllerPolicy] = None,
) -> ContinuousQueryService:
    """Rebuild a service from a snapshot file path or decoded payload.

    Args:
        snapshot: path of a file written by
            :meth:`~repro.recovery.checkpoint.CheckpointManager.checkpoint`,
            or an already decoded payload dict.
        queries: replacement :class:`Query` objects for queries that were
            registered as objects rather than CQL text (their plans cannot
            be recompiled from the snapshot alone).
        policy: controller policy for the rebuilt service; the controller
            restarts its warm-up either way.
    """
    payload = validate_snapshot(
        read_snapshot(snapshot) if isinstance(snapshot, str) else snapshot
    )
    catalog = (
        Catalog(payload["catalog"]) if payload["catalog"] is not None else None
    )
    builder = PhysicalBuilder(**payload["builder"])
    registry_config = payload["registry"]
    service = ContinuousQueryService(
        catalog=catalog,
        policy=policy,
        builder=builder,
        default_window=registry_config["default_window"],
        time_scale=registry_config["time_scale"],
    )
    service.registry.bucket_size = registry_config["bucket_size"]
    hub_state = payload["hub"]
    service.hub.rewind(
        hub_state["clock"], hub_state["published"], hub_state["offsets"]
    )
    for record in payload["queries"]:
        name = record["name"]
        source: Union[str, Query, None] = (queries or {}).get(name) or record["cql"]
        if source is None:
            raise RecoveryError(
                f"query {name!r} was registered as a Query object, not CQL "
                "text: pass a replacement via restore_service(queries={...})"
            )
        recorder = MetricsRecorder(registry_config["bucket_size"])
        handle = service.register(name, source, metrics=recorder)
        signature = handle.plan.signature()
        if signature != record["plan_signature"]:
            raise RecoveryError(
                f"query {name!r} rebuilt to plan {signature!r} but the "
                f"snapshot holds state for {record['plan_signature']!r} — "
                "it was checkpointed after a migration and cannot be "
                "restored from its registered query alone"
            )
        handle.executor.restore_checkpoint(_unpack_executor_state(record["executor"]))
        recorder.restore_epoch(record["metrics"])
        handle.sink.elements.extend(unpack_elements(record["sink"]))
        handle.last_migration_completed = record["last_migration_completed"]
        if record["state"] == PAUSED:
            service.pause(name)
    return service


def replay_tail(
    service: ContinuousQueryService,
    feed: Iterable[Tuple[str, StreamElement]],
    offsets: Optional[Dict[str, int]] = None,
) -> int:
    """Replay the original feed into a restored service, skipping the
    prefix the checkpoint already covers.

    Args:
        service: a service produced by :func:`restore_service`.
        feed: the original ``(source, element)`` sequence in its original
            global order — the durable input log of a real deployment.
        offsets: per-source element counts to skip; defaults to the hub's
            restored offsets.

    Returns the number of elements actually replayed.  Inconsistencies
    between the feed and the recorded offsets — a skipped element the
    checkpoint could not have seen, or a replayed element behind the
    restored clock — surface as :class:`RecoveryError`.
    """
    hub = service.hub
    skip = dict(hub.offsets if offsets is None else offsets)
    replayed = 0
    for source, item in feed:
        pending = skip.get(source, 0)
        if pending > 0:
            skip[source] = pending - 1
            if item.start > hub.clock:
                raise RecoveryError(
                    f"inconsistent offsets: the checkpoint claims to have "
                    f"consumed {source!r} element at {item.start}, beyond "
                    f"its own clock {hub.clock} — the feed does not match "
                    "the checkpointed run"
                )
            continue
        try:
            hub.push(source, item)
        except ValueError as exc:
            raise RecoveryError(
                f"inconsistent offsets: replayed {source!r} element at "
                f"{item.start} is behind the restored hub clock "
                f"{hub.clock}"
            ) from exc
        replayed += 1
    return replayed


def _unpack_executor_state(packed: dict) -> dict:
    state = dict(packed)
    operators: List[dict] = []
    for record in packed["operators"]:
        unpacked = dict(record)
        unpacked["progress"] = dict(record["progress"])
        unpacked["progress"]["staged"] = unpack_elements(
            record["progress"]["staged"]
        )
        unpacked["ports"] = (
            None
            if record["ports"] is None
            else [unpack_elements(columns) for columns in record["ports"]]
        )
        operators.append(unpacked)
    state["operators"] = operators
    return state
