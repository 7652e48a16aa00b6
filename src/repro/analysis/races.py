"""Happens-before race detection for the transport / sharded layer.

The sharded router's byte-identical-merge guarantee (see
:mod:`repro.engine.sharded`) is a concurrency claim: whatever order shard
replies *arrive* in, the router must emit completed actions in global
sequence order, merging broadcast parts deterministically.  On a real
process transport arrival order is scheduler-dependent; this module makes
it a **model-checked choice** instead:

* :class:`RecordingTransport` wraps the in-process transport with
  reply-release control: every ``poll`` consults the explorer's choice
  tape, releasing or withholding each buffered reply — so the explorer
  drives the router through every reply arrival order a real transport
  could produce.  Blocking ``recv`` always delivers (FIFO), keeping every
  schedule deadlock-free.
* Channels carry **vector clocks**: sends merge the router's clock into
  the shard's, deliveries merge the shard's back — recording the
  happens-before order actually established, so concurrent (racy)
  deliveries are identifiable in the event log.
* The router's :attr:`~repro.engine.sharded.ShardedExecutor.
  on_action_emitted` hook audits the global emission order (``RAC001``
  on any sequence regression — a merge-reordering race), the output is
  byte-compared against a single-process reference run (lost updates
  surface as divergence), and unaccounted replies at ``finish`` surface
  as ``RAC002`` (a lost reply).
* The ``shard-checkpoint`` preset drives the quiesced-cut checkpoint
  protocol mid-stream and restores under a *different* shard count,
  checking the barrier against every withheld-reply schedule.

Deliberate bugs for CI loud-failure checks (:func:`seed_shard_bug`):
``unordered-pump`` replaces the router's ordered pump with arrival-order
emission (the lost-ordering race the real pump prevents), and
``drop-command`` silently drops one broadcast command on one shard (a
lost update the reply accounting must catch).

Run via ``python -m repro.analysis modelcheck --preset shard-merge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..temporal.time import Time
from .modelcheck import (
    ModelCheckResult,
    ScheduleViolation,
    _PRUNED,
    _ChoiceTape,
    _element_identity,
    _engine_error,
    explore,
)

#: The ``strategy`` a shard scenario's result reports: transport races
#: belong to the sharded router, not to any migration strategy.
TRANSPORT = "transport"


def _merge_vectors(a: List[int], b: Sequence[int]) -> List[int]:
    return [max(x, y) for x, y in zip(a, b)]


class RecordingTransport:
    """In-process shard transport with tape-controlled reply release.

    Duck-types :class:`~repro.engine.transport.Transport` for the sharded
    router.  Component 0 of every vector clock is the router; component
    ``i + 1`` is shard ``i``.
    """

    def __init__(
        self,
        tape: Optional[_ChoiceTape] = None,
        drop_adv_on_shard: Optional[int] = None,
        withhold_budget: int = 2,
    ) -> None:
        self.tape = tape
        #: Preemption bound (iterative context bounding): at most this
        #: many *withhold* decisions per schedule consult the tape; once
        #: spent, replies release deterministically.  Reordering races
        #: need only one withhold to manifest, and the bound keeps the
        #: schedule tree polynomial instead of exponential.
        self.withhold_budget = withhold_budget
        self.withholds = 0
        self.channels: List[RecordingChannel] = []
        #: Happens-before event log: ``send`` and ``deliver`` entries with
        #: vector-clock stamps.
        self.events: List[Dict[str, Any]] = []
        self.router_vector: List[int] = []
        self._drop_adv_on_shard = drop_adv_on_shard

    def launch(self, count: int, bootstrap: Dict[str, Any]) -> List["RecordingChannel"]:
        from ..engine.sharded import ShardServer

        self.router_vector = [0] * (count + 1)
        self.channels = [
            RecordingChannel(ShardServer(bootstrap, index), index, self)
            for index in range(count)
        ]
        return list(self.channels)

    def shutdown(self) -> None:
        pass

    def concurrent_deliveries(self) -> int:
        """Cross-shard event pairs unordered by happens-before.

        A shard's processing (its ``send`` event, stamped with the channel
        clock) is concurrent with router-side events that occur before the
        reply is delivered — the vector-clock evidence that a reply was
        genuinely in flight while the router raced ahead.
        """
        events = self.events
        count = 0
        for i, first in enumerate(events):
            for second in events[i + 1 :]:
                if first["shard"] == second["shard"]:
                    continue
                u, v = first["vector"], second["vector"]
                if not all(x <= y for x, y in zip(u, v)) and not all(
                    x >= y for x, y in zip(u, v)
                ):
                    count += 1
        return count


class RecordingChannel:
    """Synchronous shard channel whose reply *release* the tape controls.

    Replies are computed eagerly at ``send`` (the worker is in-process)
    but buffered; ``poll`` releases a tape-chosen prefix of the buffer,
    modelling replies still in flight.  ``recv`` always delivers the
    oldest buffered reply — blocking receives cannot be starved, so every
    explored schedule terminates.
    """

    def __init__(self, server: Any, index: int, transport: RecordingTransport) -> None:
        self._server = server
        self.index = index
        self._transport = transport
        self._arrived: List[List[tuple]] = []
        self._closed = False
        self.sent = 0
        self.released = 0
        self.vector = [0] * (len(transport.router_vector) or 1)
        self._dropped_adv = False

    def send(self, message: List[tuple]) -> None:
        from ..engine.transport import TransportError

        if self._closed:
            raise TransportError("channel is closed")
        transport = self._transport
        if len(self.vector) != len(transport.router_vector):
            self.vector = [0] * len(transport.router_vector)
        transport.router_vector[0] += 1
        self.vector = _merge_vectors(self.vector, transport.router_vector)
        self.vector[self.index + 1] += 1
        if (
            transport._drop_adv_on_shard == self.index
            and not self._dropped_adv
            and any(command[0] == "adv" for command in message)
        ):
            # Seeded bug: silently lose one broadcast advance command —
            # its reply never arrives, so the router's accounting must
            # flag the action as unaccounted for (RAC002).
            message = [c for c in message if c[0] != "adv"]
            self._dropped_adv = True
        transport.events.append(
            {
                "kind": "send",
                "shard": self.index,
                "seqs": [command[1] for command in message],
                "vector": tuple(self.vector),
            }
        )
        self._arrived.append(self._server.execute(message) if message else [])
        self.sent += 1

    def _deliver(self) -> List[tuple]:
        message = self._arrived.pop(0)
        transport = self._transport
        transport.router_vector = _merge_vectors(transport.router_vector, self.vector)
        transport.router_vector[0] += 1
        transport.events.append(
            {
                "kind": "deliver",
                "shard": self.index,
                "seqs": [reply[0] for reply in message],
                "vector": tuple(transport.router_vector),
            }
        )
        self.released += 1
        return message

    def poll(self) -> List[List[tuple]]:
        out: List[List[tuple]] = []
        transport = self._transport
        tape = transport.tape
        while self._arrived:
            if (
                tape is not None
                and transport.withholds < transport.withhold_budget
                and tape.choose(2, f"release:s{self.index}") != 0
            ):
                transport.withholds += 1
                break
            out.append(self._deliver())
        return out

    def recv(self, timeout: Optional[float] = None) -> List[tuple]:
        from ..engine.transport import TransportError

        if not self._arrived:
            raise TransportError("no reply pending on a synchronous channel")
        return self._deliver()

    def close(self) -> None:
        self._closed = True


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #


@dataclass
class ShardScenario:
    """One bounded sharded-execution scenario the explorer can exhaust.

    ``events`` are ``(source, payload, t)`` triples in global start order
    (the router's ingest contract); ``checkpoint_at`` (an event index)
    drives the quiesced-cut protocol mid-stream and restores into a fresh
    router with ``restore_shards`` workers.
    """

    name: str
    description: str
    make_query: Callable[[], Any]
    events: Sequence[Tuple[str, tuple, Time]]
    shards: int = 2
    pipeline_depth: int = 1
    checkpoint_at: Optional[int] = None
    restore_shards: Optional[int] = None
    #: Preemption bound per schedule (see :class:`RecordingTransport`).
    withhold_budget: int = 2
    seeded_bug: Optional[str] = None
    strategy: str = TRANSPORT
    expect_violation: bool = False

    def build_events(self) -> List[Tuple[str, Any]]:
        from ..temporal import CHRONON, element

        return [
            (source, element(payload, t, t + CHRONON))
            for source, payload, t in self.events
        ]

    def run_check(self, budget: Optional[int] = None) -> ModelCheckResult:
        """Explore this scenario; see :func:`check_shard_scenario`."""
        return check_shard_scenario(self, budget=budget)


def _reference_output(scenario: ShardScenario) -> List[tuple]:
    """The single-process run the merged shard output must reproduce."""
    from ..engine.executor import QueryExecutor
    from ..plans.physical import PhysicalBuilder
    from ..streams import CollectorSink, PhysicalStream

    query = scenario.make_query()
    box = PhysicalBuilder().build(query.plan)
    executor = QueryExecutor(
        {name: PhysicalStream(name=name) for name in query.windows},
        dict(query.windows),
        box,
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    for source, item in scenario.build_events():
        executor.push(source, item)
    executor.finish()
    return [(e.payload, e.start, e.end, e.flag) for e in sink.elements]


def _make_sharded(scenario: ShardScenario, shards: int, tape: _ChoiceTape):
    from ..engine.sharded import ShardedExecutor
    from ..streams import CollectorSink

    transport = RecordingTransport(
        tape,
        drop_adv_on_shard=1 if scenario.seeded_bug == "drop-command" else None,
        withhold_budget=scenario.withhold_budget,
    )
    cls = (
        _unordered_pump_class()
        if scenario.seeded_bug == "unordered-pump"
        else ShardedExecutor
    )
    executor = cls(
        scenario.make_query(),
        shards,
        transport=transport,
        pipeline_depth=scenario.pipeline_depth,
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    return executor, sink, transport


def _run_shard_schedule(
    scenario: ShardScenario, tape: _ChoiceTape, seen: set
) -> Any:
    """Drive one reply-release schedule; returns output or ``_PRUNED``.

    Returns ``(output_rows, emission_races, transport)`` on completion.
    """
    executor, sink, transport = _make_sharded(scenario, scenario.shards, tape)
    emission_races: List[str] = []
    expected_seq = [0]

    def monitor(seq: int, kind: str, elements: List[Any]) -> None:
        if seq < expected_seq[0]:
            emission_races.append(
                f"action {seq} emitted after action {expected_seq[0] - 1}"
            )
        expected_seq[0] = max(expected_seq[0], seq + 1)

    executor.on_action_emitted = monitor

    events = scenario.build_events()
    restored = False
    for index, (source, item) in enumerate(events):
        if scenario.checkpoint_at is not None and index == scenario.checkpoint_at:
            state = executor.checkpoint_state()
            executor.close()
            executor, sink2, transport = _make_sharded(
                scenario, scenario.restore_shards or scenario.shards, tape
            )
            executor.on_action_emitted = monitor
            expected_seq[0] = 0
            executor.restore_checkpoint(state)
            sink = _ConcatSink(sink, sink2)
            restored = True
        executor.push(source, item)
        # State pruning, only strictly past the replayed prefix and only
        # before the checkpoint handoff (the restored router's state is a
        # function of the handoff, which the key does not cover).
        if not restored and tape.position > len(tape.prefix):
            key = (
                index,
                tuple(
                    (ch.sent, ch.released, len(ch._arrived))
                    for ch in transport.channels
                ),
                executor._next_seq,
                executor._next_emit,
                tuple(_element_identity(e) for e in sink.elements),
            )
            if key in seen:
                executor.close()
                return _PRUNED
            seen.add(key)
    executor.finish()
    executor.close()
    return (
        [(e.payload, e.start, e.end, e.flag) for e in sink.elements],
        emission_races,
        transport,
    )


class _ConcatSink:
    """Read-only view concatenating two collector sinks' elements."""

    def __init__(self, first: Any, second: Any) -> None:
        self._first = first
        self._second = second

    @property
    def elements(self) -> List[Any]:
        return list(self._first.elements) + list(self._second.elements)


def check_shard_scenario(
    scenario: ShardScenario, budget: Optional[int] = None
) -> ModelCheckResult:
    """Explore every reply-release schedule of ``scenario`` (:func:`explore`).

    Each schedule's merged output is byte-compared against the
    single-process reference; emission-order regressions surface as
    ``RAC001``, lost/unaccounted replies as ``RAC002``.
    """
    from ..engine.transport import TransportError

    reference = _reference_output(scenario)

    def on_error(exc: Exception) -> Tuple[str, str]:
        if isinstance(exc, TransportError):
            return "RAC002", f"lost or unaccounted reply under this schedule: {exc}"
        return "RAC001", _engine_error(exc)

    def judge(outcome, schedule: Tuple[str, ...]) -> List[ScheduleViolation]:
        output, emission_races, transport = outcome
        if emission_races:
            return [
                ScheduleViolation(
                    "RAC001",
                    f"merge-reordering race: {emission_races[0]} "
                    f"({transport.concurrent_deliveries()} concurrent reply "
                    "deliveries by vector clock)",
                    schedule,
                )
            ]
        if output != reference:
            return [
                ScheduleViolation(
                    "RAC001",
                    "merged output diverges from the single-process "
                    "reference run (lost update or merge reorder)",
                    schedule,
                )
            ]
        return []

    return explore(
        ModelCheckResult(
            scenario=scenario.name,
            strategy=scenario.strategy,
            expect_violation=scenario.expect_violation,
        ),
        budget,
        lambda tape, seen: _run_shard_schedule(scenario, tape, seen),
        on_error,
        judge,
    )


# --------------------------------------------------------------------- #
# Seeded bugs
# --------------------------------------------------------------------- #


def _unordered_pump_class():
    """A router whose pump emits completed actions in *arrival* order.

    Exactly the race the real :meth:`ShardedExecutor._pump` prevents:
    under withheld-reply schedules a later action completes first and is
    emitted ahead of an earlier one, breaking the global sequence order —
    the emission monitor must flag it (RAC001).
    """
    import heapq

    from ..engine.sharded import ShardedExecutor

    class _UnorderedPumpShardedExecutor(ShardedExecutor):
        def _pump(self) -> None:
            for seq in list(self._pending):
                record = self._pending[seq]
                if record["need"]:
                    continue
                del self._pending[seq]
                self._next_emit = max(self._next_emit, seq + 1)
                if record["kind"] == "out":
                    if record["parts"] is None:
                        outputs = list(record["payload"])
                    else:
                        outputs = list(
                            heapq.merge(*record["parts"], key=self._merge_key)
                        )
                    if self.on_action_emitted is not None:
                        self.on_action_emitted(seq, "out", outputs)
                    for element in outputs:
                        self.gate.process(element)
                else:
                    self._results[seq] = (
                        record["payload"]
                        if record["parts"] is None
                        else record["parts"]
                    )

    return _UnorderedPumpShardedExecutor


SHARD_SEED_BUGS = ("unordered-pump", "drop-command")


def seed_shard_bug(scenario: ShardScenario, bug: str) -> ShardScenario:
    """Return a copy of ``scenario`` with a deliberate transport bug."""
    if bug not in SHARD_SEED_BUGS:
        raise KeyError(
            f"unknown seeded bug {bug!r}; known: {', '.join(SHARD_SEED_BUGS)}"
        )
    return ShardScenario(
        name=f"{scenario.name}+{bug}",
        description=f"{scenario.description} [seeded bug: {bug}]",
        make_query=scenario.make_query,
        events=scenario.events,
        shards=scenario.shards,
        pipeline_depth=scenario.pipeline_depth,
        checkpoint_at=scenario.checkpoint_at,
        restore_shards=scenario.restore_shards,
        withhold_budget=scenario.withhold_budget,
        seeded_bug=bug,
        strategy=scenario.strategy,
        expect_violation=scenario.expect_violation,
    )


# --------------------------------------------------------------------- #
# Preset scenarios
# --------------------------------------------------------------------- #


def _distinct_query():
    from ..plans.logical import DistinctNode, Query, Source

    return Query(DistinctNode(Source("A", ["k"])), {"A": 8})


def _join_query():
    from ..plans.expressions import Comparison, Field
    from ..plans.logical import JoinNode, Query, Source

    return Query(
        JoinNode(
            Source("A", ["k", "v"]),
            Source("B", ["k"]),
            Comparison("=", Field("A.k"), Field("B.k")),
        ),
        {"A": 12, "B": 12},
    )


def _shard_merge() -> ShardScenario:
    return ShardScenario(
        name="shard-merge",
        description=(
            "2-shard duplicate elimination (strict regime): equalising "
            "broadcasts finalise output on both shards and the router "
            "merges the parts — checked under every reply arrival order"
        ),
        make_query=_distinct_query,
        events=(
            ("A", (0,), 0),
            ("A", (1,), 2),
            ("A", (0,), 4),
            ("A", (1,), 5),
            ("A", (2,), 7),
            ("A", (0,), 9),
        ),
        shards=2,
        pipeline_depth=1,
    )


def _shard_checkpoint() -> ShardScenario:
    return ShardScenario(
        name="shard-checkpoint",
        description=(
            "2-shard equi-join with a mid-stream quiesced-cut checkpoint "
            "restored under 3 shards: the barrier protocol checked under "
            "every withheld-reply schedule"
        ),
        make_query=_join_query,
        events=(
            ("A", (0, 1), 0),
            ("B", (0,), 1),
            ("A", (1, 2), 2),
            ("B", (1,), 3),
            ("A", (0, 3), 4),
            ("B", (0,), 5),
        ),
        shards=2,
        pipeline_depth=1,
        checkpoint_at=3,
        restore_shards=3,
    )


SHARD_PRESETS: Dict[str, Callable[[], ShardScenario]] = {
    "shard-merge": _shard_merge,
    "shard-checkpoint": _shard_checkpoint,
}


def build_shard_scenario(name: str) -> ShardScenario:
    """Instantiate a shard-scenario preset by name."""
    try:
        return SHARD_PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; presets: "
            f"{', '.join(sorted(SHARD_PRESETS))}"
        ) from None
