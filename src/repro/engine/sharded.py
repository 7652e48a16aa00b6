"""Partition-parallel execution: hash-sharded workers behind one router.

A key-shardable plan (see :mod:`repro.analysis.sharding`) partitions by a
single equivalence class of key columns: every keyed stateful operator
(hash join, grouped aggregate, duplicate elimination, difference) only
ever co-relates rows whose key values are equal.  Routing each raw input
element to ``crc32(repr(key)) % N`` therefore gives each of ``N``
shared-nothing workers a self-contained slice of the query: a worker runs
a *full copy* of the physical plan, built inside the worker from the
picklable logical query, and sees exactly the elements whose keys it
owns.

The router (:class:`ShardedExecutor`) preserves the executor's public
surface — ``push``/``push_batch``/``advance``/``finish``/``add_sink``/
``checkpoint_state``/``restore_checkpoint`` — and guarantees the merged
output is **byte-identical** to a single-process run of the same plan
over the same input.  The mechanism is a global action sequence:

* every router action (element, coalesced run, advance, finish) carries
  one monotonically increasing sequence number;
* single-shard actions pass their captured output through in sequence
  order — a cascade triggered by one element is wholly owned by the
  shard that processed it;
* broadcast actions (watermark advances, ``finish``) return one output
  list per shard, merged by a content key that reproduces the
  single-process staged-heap release order (operators canonicalise
  equal-start emission for exactly this purpose — see
  ``operators/base.py`` ``_stage_key``).

Two broadcast regimes follow from the plan classification:

* **eager** plans (joins, unions, stateless chains) release all output
  in-action: workers self-advance through their local global-heartbeat
  fan-out, and the router never broadcasts except for explicit
  ``advance`` calls and ``finish`` — both output-neutral or merged.
* **strict** plans (grouped aggregate / distinct / difference at the
  root) finalise output on watermark rises that must be *equalised*
  across shards: the router broadcasts an advance to every shard before
  the first element of each new distinct start timestamp, so
  finalisation happens at the broadcast (merged deterministically), and
  element commands stay pass-through.

Checkpoints capture per-shard executor state plus the router
configuration; :meth:`ShardedExecutor.restore_checkpoint` re-partitions
drained operator state by key, so a checkpoint taken under ``N`` shards
restores under ``M != N`` — including ``N = 1``: a plain single-process
:class:`~repro.engine.executor.QueryExecutor` checkpoint seeds a sharded
deployment directly.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..recovery.errors import RecoveryError
from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import MIN_TIME, Time
from .box import OutputGate
from .transport import LocalTransport, ShardChannel, Transport, TransportError


def shard_of(value: object, count: int) -> int:
    """The owning shard of one key value: ``crc32(repr(value)) % count``.

    ``repr`` makes the hash stable across processes and Python builds
    (unlike ``hash``, which is salted for strings), which checkpoints and
    cross-process routing both require.
    """
    return zlib.crc32(repr(value).encode("utf-8")) % count


class ShardRouter:
    """Pure routing policy: which shard owns a given raw input element."""

    def __init__(self, routing: Dict[str, int], shard_count: int) -> None:
        self.routing = dict(routing)
        self.shard_count = shard_count

    def shard_for(self, source: str, element: StreamElement) -> int:
        if self.shard_count == 1:
            return 0
        return shard_of(element.payload[self.routing[source]], self.shard_count)


class _CaptureSink:
    """Worker-side sink collecting the outputs of the current command."""

    def __init__(self, outputs: List[StreamElement]) -> None:
        self._outputs = outputs

    def process(self, element: StreamElement, port: int = 0) -> None:
        self._outputs.append(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        pass


class ShardServer:
    """One shard: a full plan copy plus the command interpreter.

    Built entirely from the picklable ``bootstrap`` description, so the
    same class serves both transports: :class:`~repro.engine.transport.
    LocalTransport` constructs it in-process, ``ProcessTransport``'s
    worker entry point constructs it inside a spawned process.

    Command grammar (``seq`` is the router's global action sequence)::

        ("el",         seq, source, element)
        ("batch",      seq, source, elements, watermark, uniform)
        ("adv",        seq, source_or_None, t)   # None = all sources
        ("finish",     seq)
        ("checkpoint", seq)
        ("seed",       seq, state)
        ("stats",      seq)

    Every command yields one reply ``(seq, kind, payload)`` with ``kind``
    in ``{"out", "state", "stats", "err"}``; ``execute`` maps a message
    (list of commands) to the list of replies.
    """

    def __init__(self, bootstrap: Dict[str, Any], index: int) -> None:
        from ..plans.physical import PhysicalBuilder
        from ..streams.stream import PhysicalStream
        from .executor import QueryExecutor
        from .metrics import MetricsRecorder

        query = bootstrap["query"]
        builder = PhysicalBuilder(**bootstrap.get("builder", {}))
        box = builder.build(query.plan, label=f"shard{index}")
        self.index = index
        self.metrics = MetricsRecorder(bootstrap.get("bucket_size", 1000))
        self.executor = QueryExecutor(
            sources={name: PhysicalStream(name=name) for name in query.windows},
            windows=dict(query.windows),
            box=box,
            metrics=self.metrics,
            batch_size=bootstrap.get("batch_size", 64),
        )
        self._outputs: List[StreamElement] = []
        self.executor.add_sink(_CaptureSink(self._outputs))

    def _take(self) -> List[StreamElement]:
        out = self._outputs[:]
        del self._outputs[:]
        return out

    def execute(self, message: List[tuple]) -> List[tuple]:
        replies: List[tuple] = []
        for command in message:
            kind = command[0]
            seq = command[1]
            try:
                replies.append((seq,) + self._dispatch(kind, command))
            except Exception as exc:  # surfaced (and re-raised) router-side
                replies.append((seq, "err", f"{type(exc).__name__}: {exc}"))
        return replies

    def _dispatch(self, kind: str, command: tuple) -> Tuple[str, Any]:
        executor = self.executor
        if kind == "el":
            _, _, source, element = command
            executor.push(source, element)
            return ("out", self._take())
        if kind == "batch":
            _, _, source, elements, watermark, uniform = command
            executor.push_batch(
                source, Batch._trusted(list(elements), watermark, source, uniform)
            )
            return ("out", self._take())
        if kind == "adv":
            _, _, source, t = command
            executor.advance(source, t)
            return ("out", self._take())
        if kind == "finish":
            executor.finish()
            return ("out", self._take())
        if kind == "checkpoint":
            return ("state", executor.checkpoint_state())
        if kind == "seed":
            executor.restore_checkpoint(command[2])
            return ("out", self._take())
        if kind == "stats":
            metrics = self.metrics.to_dict()
            metrics["meter"] = {
                "total": executor.meter.total,
                "by_category": dict(executor.meter.by_category),
            }
            return (
                "stats",
                {
                    "metrics": metrics,
                    "state_values": executor.state_value_count(),
                    "delivered": executor.gate.delivered,
                },
            )
        raise ValueError(f"unknown shard command {kind!r}")


class ShardedExecutor:
    """Hash-partitioned execution of one key-shardable continuous query.

    Duck-types the :class:`~repro.engine.executor.QueryExecutor` surface
    the service layer consumes (ingest hub, checkpointer, registry); the
    plan-migration machinery is intentionally absent — re-optimization of
    a sharded deployment restarts from a checkpoint instead
    (``migration_active`` is permanently ``False``).

    Args:
        query: the logical query (picklable; each worker rebuilds the
            physical plan from it).
        shards: worker count ``N >= 1``.
        transport: where workers live; default in-process
            :class:`~repro.engine.transport.LocalTransport`.
        builder_config: keyword arguments for the worker-side
            ``PhysicalBuilder`` (cost weights, ``force_nested_loops``).
        metrics: optional router-side recorder fed one output sample per
            delivered result (worker-side recorders are aggregated
            separately via ``shard_stats``).
        batch_size: worker executor batch size.
        bucket_size: worker metrics bucket size.
        pipeline_depth: router actions buffered before a transport flush;
            higher amortises IPC for process transports, ``1`` delivers
            outputs eagerly.
    """

    def __init__(
        self,
        query: Any,
        shards: int,
        transport: Optional[Transport] = None,
        builder_config: Optional[Dict[str, Any]] = None,
        metrics: Optional[Any] = None,
        batch_size: int = 64,
        bucket_size: Time = 1000,
        pipeline_depth: int = 16,
    ) -> None:
        from ..analysis.sharding import classify_sharding

        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        plan = classify_sharding(query)
        if not plan.shardable:
            raise ValueError(f"query is not key-shardable: {plan.explain()}")
        self.query = query
        self.sharding = plan
        self.shard_count = shards
        self.windows: Dict[str, Time] = dict(query.windows)
        self.batch_size = batch_size
        self.metrics = metrics
        self.router = ShardRouter(plan.routing, shards)
        self._merge_key = _merge_key_for(query.plan)
        self._strict = plan.mode == "strict"

        self.transport = transport or LocalTransport()
        bootstrap: Dict[str, Any] = {
            "query": query,
            "builder": dict(builder_config or {}),
            "batch_size": batch_size,
            "bucket_size": bucket_size,
        }
        self.channels: List[ShardChannel] = self.transport.launch(shards, bootstrap)
        if len(self.channels) != shards:
            raise TransportError(
                f"transport launched {len(self.channels)} channels for {shards} shards"
            )

        # Executor-surface compatibility (ingest hub, controller, capture).
        self.sources: Dict[str, None] = {name: None for name in query.windows}
        self.gate = OutputGate(name="sharded-gate")
        self.migration_active = False
        self.migration_log: List[object] = []
        self.strategy = None
        #: Race-detector hook (:mod:`repro.analysis.races`): invoked once
        #: per emitted action with ``(seq, kind, elements)`` right before
        #: the elements reach the gate, so an instrumented run can audit
        #: the global emission order independently of gate counters.
        self.on_action_emitted: Optional[
            Callable[[int, str, List[StreamElement]], None]
        ] = None
        self.clock: Time = MIN_TIME
        self._finished = False
        self._closed = False

        # Action bookkeeping: per-channel command buffers, outstanding
        # reply-message counts, and the pending-action table the ordered
        # merge pump drains.
        self._buffers: List[List[tuple]] = [[] for _ in range(shards)]
        self._buffered = 0
        self._outstanding = [0] * shards
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._results: Dict[int, Any] = {}
        self._next_seq = 0
        self._next_emit = 0
        self._pipeline_depth = pipeline_depth
        # Highest element start for which strict mode has broadcast the
        # equalising advance; None until the first element.
        self._equalized: Optional[Time] = None

        if metrics is not None:
            self.gate.on_delivery = lambda count: metrics.record_output(self.clock, count)

    # ------------------------------------------------------------------ #
    # Command plumbing
    # ------------------------------------------------------------------ #

    def _single(self, shard: int, command_tail: tuple, kind: str) -> int:
        seq = self._next_seq
        self._next_seq += 1
        self._buffers[shard].append((command_tail[0], seq) + command_tail[1:])
        self._buffered += 1
        self._pending[seq] = {"parts": None, "shard": shard, "need": 1, "kind": kind}
        return seq

    def _broadcast(self, command_tail: tuple, kind: str) -> int:
        seq = self._next_seq
        self._next_seq += 1
        command = (command_tail[0], seq) + command_tail[1:]
        for buffer in self._buffers:
            buffer.append(command)
        self._buffered += self.shard_count
        self._pending[seq] = {
            "parts": [None] * self.shard_count,
            "shard": None,
            "need": self.shard_count,
            "kind": kind,
        }
        return seq

    def _flush(self) -> None:
        for index, buffer in enumerate(self._buffers):
            if buffer:
                self.channels[index].send(buffer)
                self._outstanding[index] += 1
                self._buffers[index] = []
        self._buffered = 0

    def _maybe_flush(self) -> None:
        if self._buffered >= self._pipeline_depth:
            self._flush()
        self._collect(block=False)

    def _collect(self, block: bool) -> None:
        """Absorb arrived replies; with ``block``, wait until none remain."""
        for index, channel in enumerate(self.channels):
            for message in channel.poll():
                self._absorb(index, message)
        if block:
            while True:
                waiting = [i for i, n in enumerate(self._outstanding) if n]
                if not waiting:
                    break
                for index in waiting:
                    self._absorb(index, self.channels[index].recv(timeout=120.0))
        self._pump()

    def _absorb(self, shard: int, message: List[tuple]) -> None:
        self._outstanding[shard] -= 1
        for seq, kind, payload in message:
            if kind == "err":
                raise TransportError(f"shard {shard} failed at action {seq}: {payload}")
            record = self._pending[seq]
            if record["parts"] is None:
                record["payload"] = payload
            else:
                record["parts"][shard] = payload
            record["need"] -= 1

    def _pump(self) -> None:
        """Emit completed actions in global sequence order."""
        while True:
            record = self._pending.get(self._next_emit)
            if record is None or record["need"]:
                return
            seq = self._next_emit
            del self._pending[seq]
            self._next_emit = seq + 1
            if record["kind"] == "out":
                if record["parts"] is None:
                    outputs: Iterable[StreamElement] = record["payload"]
                else:
                    outputs = heapq.merge(*record["parts"], key=self._merge_key)
                if self.on_action_emitted is not None:
                    outputs = list(outputs)
                    self.on_action_emitted(seq, "out", outputs)
                deliver = self.gate.process
                for element in outputs:
                    deliver(element)
            else:  # "state" | "stats": collected for the barrier caller
                self._results[seq] = (
                    record["payload"] if record["parts"] is None else record["parts"]
                )

    def _barrier(self) -> None:
        self._flush()
        self._collect(block=True)

    # ------------------------------------------------------------------ #
    # Ingest surface
    # ------------------------------------------------------------------ #

    def _check_live(self, source: str) -> None:
        if self._finished:
            raise RecoveryError("executor already finished")
        if source not in self.windows:
            raise KeyError(f"unknown source {source!r}")

    def _equalize(self, start: Time) -> None:
        """Strict mode: broadcast-advance all shards to ``start`` before
        the first element of each new distinct start, so watermark-driven
        finalisation happens at the (merged) broadcast on every shard."""
        if self._equalized is None or start > self._equalized:
            self._broadcast(("adv", None, start), "out")
            self._equalized = start

    def push(self, source: str, element: StreamElement) -> None:
        """Route one element to its owning shard (global start order)."""
        self._check_live(source)
        if element.start < self.clock:
            raise ValueError(
                f"sharded executor received {source!r} element at "
                f"{element.start} behind the clock {self.clock}"
            )
        if self._strict:
            self._equalize(element.start)
        self.clock = max(self.clock, element.start)
        shard = self.router.shard_for(source, element)
        self._single(shard, ("el", source, element), "out")
        self._maybe_flush()

    def push_batch(self, source: str, batch: Batch) -> None:
        """Route an ordered run, coalescing same-shard stretches.

        Consecutive elements owned by the same shard travel as one
        worker-side batch (taking the amortised plan path); in strict
        mode a coalesced run never crosses a start-group boundary, since
        the equalising broadcast must precede each new start.
        """
        self._check_live(source)
        elements = batch.elements
        if not elements:
            if batch.watermark > self.clock:
                self.advance(source, batch.watermark)
            return
        if elements[0].start < self.clock:
            raise ValueError(
                f"sharded executor received {source!r} element at "
                f"{elements[0].start} behind the clock {self.clock}"
            )
        shard_for = self.router.shard_for
        index, n = 0, len(elements)
        while index < n:
            element = elements[index]
            start = element.start
            if self._strict:
                self._equalize(start)
            self.clock = max(self.clock, start)
            shard = shard_for(source, element)
            stop = index + 1
            while stop < n and shard_for(source, elements[stop]) == shard:
                if self._strict and elements[stop].start != start:
                    break
                stop += 1
            run = elements[index:stop]
            if len(run) == 1:
                self._single(shard, ("el", source, element), "out")
            else:
                last_start = run[-1].start
                self._single(
                    shard,
                    ("batch", source, list(run), last_start, start == last_start),
                    "out",
                )
                self.clock = max(self.clock, last_start)
            index = stop
        if batch.watermark > elements[-1].start:
            self.advance(source, batch.watermark)
        else:
            self._maybe_flush()

    def advance(self, source: Optional[str], t: Time) -> None:
        """Promise all shards that ``source`` — every source when ``None``
        — will not deliver before ``t``: one broadcast either way."""
        if source is not None and source not in self.windows:
            raise KeyError(f"unknown source {source!r}")
        self.clock = max(self.clock, t)
        self._broadcast(("adv", source, t), "out")
        self._maybe_flush()

    def finish(self) -> None:
        """Drain every shard and merge the final outputs."""
        if self._finished:
            return
        self._broadcast(("finish",), "out")
        self._barrier()
        self._finished = True
        if self._pending:
            raise TransportError(
                f"{len(self._pending)} shard action(s) unaccounted for at finish"
            )

    def add_sink(self, sink: object) -> None:
        """Attach a sink to the merged query output."""
        self.gate.add_sink(sink)

    def close(self) -> None:
        """Tear down channels and the transport; idempotent."""
        if self._closed:
            return
        self._closed = True
        for channel in self.channels:
            channel.close()
        self.transport.shutdown()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard worker statistics (metrics dict, meter, state size)."""
        seq = self._broadcast(("stats",), "stats")
        self._barrier()
        return self._results.pop(seq)

    def state_value_count(self) -> int:
        """Payload values held across all shards' live state."""
        return sum(s["state_values"] for s in self.shard_stats())

    def metrics_summary(self) -> Dict[str, Any]:
        """Worker recorders aggregated into one single-process-comparable
        metrics dict (see :meth:`MetricsRecorder.aggregate`)."""
        from .metrics import MetricsRecorder

        return MetricsRecorder.aggregate(
            [s["metrics"] for s in self.shard_stats()]
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def checkpoint_state(self) -> dict:
        """Capture router configuration plus per-shard executor state.

        The shards are first equalised with an output-neutral advance to
        the router clock, so every per-shard record sits at the same
        temporal cut; differences between records are then confined to
        keyed state, staged output and meter charges.
        """
        if self._finished:
            raise RecoveryError("cannot checkpoint a finished executor")
        self._barrier()
        if self.clock != MIN_TIME:
            self._broadcast(("adv", None, self.clock), "out")
            if self._strict and (
                self._equalized is None or self.clock > self._equalized
            ):
                self._equalized = self.clock
        seq = self._broadcast(("checkpoint",), "state")
        self._barrier()
        shards = self._results.pop(seq)
        return {
            "sharded": True,
            "shard_count": self.shard_count,
            "mode": self.sharding.mode,
            "routing": dict(self.sharding.routing),
            "clock": self.clock,
            "gate": self.gate.progress_state(),
            "shards": shards,
        }

    def restore_checkpoint(self, state: dict) -> None:
        """Seed fresh shards from a checkpoint taken under any shard count.

        Accepts both this class's :meth:`checkpoint_state` payload and a
        plain single-process ``QueryExecutor.checkpoint_state`` payload
        (treated as a one-shard deployment).  Keyed operator state is
        re-partitioned row-by-row through the shard keys recorded by the
        sharding analysis, so ``M != N`` restores are exact.
        """
        if self._next_seq or self._finished or self.gate.delivered:
            raise RecoveryError("can only restore into a fresh sharded executor")
        if state.get("sharded"):
            old_states = state["shards"]
        else:
            old_states = [state]
        seeds = _repartition(
            old_states,
            self.shard_count,
            self.sharding.state_keys,
            self.sharding.root_key,
        )
        for shard, seed in enumerate(seeds):
            self._single(shard, ("seed", seed), "out")
        self._barrier()
        self.clock = state["clock"]
        if self._strict and self.clock != MIN_TIME:
            self._equalized = self.clock
        self.gate.restore_progress(state["gate"])

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _merge_key_for(plan: Any) -> Callable[[StreamElement], tuple]:
    """The content key merging per-shard broadcast outputs.

    Must agree with the single-process staged-heap release order for
    equal-start results of the root operator.  All three strict-mode
    emitters canonicalise on exactly ``(start, end, repr(payload))``:
    aggregate's ``_merge_adjacent`` and difference's finalisation sort
    staged results by it, duplicate elimination's ``_stage_key`` ties on
    ``(end, repr(payload))``.  It is also a safe default for eager
    plans, whose broadcasts are output-neutral anyway.
    """
    return lambda e: (e.start, e.end, repr(e.payload))


def _repartition(
    old_states: List[dict],
    count: int,
    state_keys: Dict[str, Tuple[Optional[int], ...]],
    root_key: Optional[int],
) -> List[dict]:
    """Re-partition per-shard executor checkpoints onto ``count`` shards.

    The first old record is the template for everything the equalising
    pre-checkpoint advance made identical across shards (watermarks,
    progress marks, gate counters); keyed rows — drained operator state,
    and staged output of the root — are concatenated across old shards
    (preserving per-key relative order, since each key lived on exactly
    one shard) and re-dealt by ``crc32 % count``.  Meter totals are
    summed onto new shard 0 so fleet-wide accounting is conserved.
    """
    template = old_states[0]
    operators = template["operators"]
    for old in old_states[1:]:
        if len(old["operators"]) != len(operators) or any(
            a["name"] != b["name"] or a["type"] != b["type"]
            for a, b in zip(old["operators"], operators)
        ):
            raise RecoveryError("sharded checkpoint records disagree on the plan")

    seeds: List[dict] = []
    for shard in range(count):
        meter = (
            {
                "total": sum(s["meter"]["total"] for s in old_states),
                "by_category": _sum_categories(
                    [s["meter"]["by_category"] for s in old_states]
                ),
            }
            if shard == 0
            else {"total": 0, "by_category": {}}
        )
        seeds.append(
            {
                "clock": template["clock"],
                "source_watermarks": dict(template["source_watermarks"]),
                "source_max_ends": {
                    name: max(s["source_max_ends"][name] for s in old_states)
                    for name in template["source_max_ends"]
                },
                "source_seen": {
                    name: any(s["source_seen"][name] for s in old_states)
                    for name in template["source_seen"]
                },
                "last_bucket": template["last_bucket"],
                "meter": meter,
                "gate": dict(template["gate"]),
                "operators": [],
            }
        )

    for position, record in enumerate(operators):
        name = record["name"]
        peers = [s["operators"][position] for s in old_states]
        for peer in peers[1:]:
            if peer["progress"]["watermarks"] != record["progress"]["watermarks"]:
                raise RecoveryError(
                    f"operator {name!r}: shard watermarks diverge — the "
                    "checkpoint was not taken at an equalised cut"
                )
        staged = _repartition_staged(name, record["type"], peers, count, root_key)
        ports = _repartition_ports(name, peers, count, state_keys.get(name))
        for shard in range(count):
            progress = dict(record["progress"])
            progress["staged"] = staged[shard]
            seeds[shard]["operators"].append(
                {
                    "type": record["type"],
                    "name": name,
                    "progress": progress,
                    "ports": None if ports is None else ports[shard],
                }
            )
    return seeds


def _sum_categories(parts: List[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for part in parts:
        for category, charge in part.items():
            total[category] = total.get(category, 0) + charge
    return total


def _repartition_staged(
    name: str,
    type_name: str,
    peers: List[dict],
    count: int,
    root_key: Optional[int],
) -> List[List[StreamElement]]:
    """Re-deal staged-but-unreleased output rows (root operator only).

    After the equalising advance, only duplicate elimination can hold
    deferred staged output (remainders pushed ahead of the watermark by
    a covered prefix); its staged lists are content-ordered, so a k-way
    content merge reproduces the global release order and each row is
    re-dealt by its root key.
    """
    lists = [peer["progress"]["staged"] for peer in peers]
    if not any(lists):
        return [[] for _ in range(count)]
    if type_name != "DuplicateElimination" or root_key is None:
        raise RecoveryError(
            f"operator {name!r} holds staged output that cannot be "
            "re-partitioned (no shard key for staged rows)"
        )
    merged = heapq.merge(*lists, key=lambda e: (e.start, e.end, repr(e.payload)))
    out: List[List[StreamElement]] = [[] for _ in range(count)]
    for element in merged:
        out[shard_of(element.payload[root_key], count)].append(element)
    return out


def _repartition_ports(
    name: str,
    peers: List[dict],
    count: int,
    keys: Optional[Tuple[Optional[int], ...]],
) -> Optional[List[List[List[StreamElement]]]]:
    """Re-deal drained operator state rows by the per-port shard keys."""
    template_ports = peers[0]["ports"]
    if template_ports is None:
        if any(peer["ports"] is not None for peer in peers[1:]):
            raise RecoveryError(f"operator {name!r}: shard drain hooks disagree")
        return None
    arity = len(template_ports)
    out: List[List[List[StreamElement]]] = [
        [[] for _ in range(arity)] for _ in range(count)
    ]
    for port in range(arity):
        rows = [row for peer in peers for row in peer["ports"][port]]
        if not rows:
            continue
        if keys is None or keys[port] is None:
            raise RecoveryError(
                f"operator {name!r} port {port} holds keyed state but the "
                "sharding analysis recorded no shard key for it"
            )
        key_index = keys[port]
        for row in rows:
            out[shard_of(row.payload[key_index], count)][port].append(row)
    return out
