"""Structured per-query decision events: the controller's audit trail.

Every consideration round of the autonomic controller ends in exactly one
outcome event (plus the leading ``considered``), and every migration it
starts later produces a ``completed`` event.  The log is the observable
record of the monitor → decide → migrate loop: operations can answer "why
did query X migrate at t?" and "why did query Y *not* migrate?" from it
alone.  Events are mirrored into the query's
:class:`~repro.engine.metrics.MetricsRecorder` so they land next to the
memory/cost/output series in one dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.metrics import MetricsRecorder
from ..temporal.time import Time

#: A round was due and was evaluated (always followed by an outcome event).
CONSIDERED = "considered"
#: Statistics below the warmup threshold — decision would be garbage.
SKIPPED_COLD = "skipped-cold"
#: Within the hysteresis window after the previous migration completed.
SKIPPED_COOLDOWN = "skipped-cooldown"
#: A migration is still in flight on this executor.
SKIPPED_IN_FLIGHT = "skipped-in-flight"
#: A better plan exists, but moving the current state would cost more than
#: the projected savings over the amortisation horizon.
SKIPPED_MIGRATION_COST = "skipped-migration-cost"
#: A better plan exists, but the policy's explicit strategy preference is
#: unsound for it (``codes`` carries the verifier's PT001/RP001/FLM00x);
#: nothing is substituted.
SKIPPED_UNSOUND_STRATEGY = "skipped-unsound-strategy"
#: Evaluated and the current plan is (still) the right one.
KEPT = "kept"
#: A dynamic migration was started.
MIGRATED = "migrated"
#: A previously started migration finished; the new plan is installed.
COMPLETED = "completed"

#: Every kind the controller emits, in rough lifecycle order.
EVENT_KINDS = (
    CONSIDERED,
    SKIPPED_COLD,
    SKIPPED_COOLDOWN,
    SKIPPED_IN_FLIGHT,
    SKIPPED_MIGRATION_COST,
    SKIPPED_UNSOUND_STRATEGY,
    KEPT,
    MIGRATED,
    COMPLETED,
)


@dataclass(frozen=True)
class DecisionEvent:
    """One structured entry of a query's audit log."""

    at: Time
    query: str
    kind: str
    detail: Tuple[Tuple[str, object], ...] = ()

    def __getitem__(self, key: str) -> object:
        for name, value in self.detail:
            if name == key:
                return value
        raise KeyError(key)

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serialisable view."""
        entry: Dict[str, object] = {
            "at": self.at,
            "query": self.query,
            "kind": self.kind,
        }
        entry.update(self.detail)
        return entry


class QueryEventLog:
    """Append-only event log of one registered query."""

    def __init__(self, query: str, recorder: Optional[MetricsRecorder] = None) -> None:
        self.query = query
        self.recorder = recorder
        self.events: List[DecisionEvent] = []

    def record(self, at: Time, kind: str, **detail: object) -> DecisionEvent:
        """Append one event; mirror it into the metrics recorder."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = DecisionEvent(
            at=at, query=self.query, kind=kind, detail=tuple(detail.items())
        )
        self.events.append(event)
        if self.recorder is not None:
            self.recorder.record_event(at, kind, query=self.query, **detail)
        return event

    def kinds(self) -> List[str]:
        """The sequence of event kinds, in recording order."""
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[DecisionEvent]:
        """All events of one kind, in recording order."""
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"QueryEventLog({self.query!r}, {len(self.events)} events)"
