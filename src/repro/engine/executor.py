"""The query executor: event loop, migration lifecycle, instrumentation.

The executor owns one continuous query: its named input streams, the
per-source window operators (shared by every plan version, see
``engine.box``), the currently installed box, and the output gate.  It
replays the finite input streams in the order chosen by a scheduler, drives
watermarks/heartbeats, fires scheduled actions (such as "start migrating at
t = 20 s"), and hands control to an installed migration strategy after
every event so the strategy can advance its state machine.

Time is *application time* throughout: the executor is a deterministic
simulator, matching the paper's sufficient-system-resources assumption
under which application and system time coincide (Section 4.4).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..operators import base as _operator_base
from ..operators.base import NULL_METER, CostMeter, Operator
from ..operators.window import TimeWindow
from ..recovery.errors import RecoveryError
from ..streams.stream import PhysicalStream
from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import MAX_TIME, MIN_TIME, Time
from .box import Box, OutputGate, Router
from .metrics import MetricsRecorder
from .queues import SourceQueue
from .scheduler import GlobalOrderScheduler, Scheduler
from .statistics import StatisticsCatalog


class MigrationError(RuntimeError):
    """Raised on invalid migration lifecycle transitions."""


class QueryExecutor:
    """Runs one continuous query over finite input streams.

    Args:
        sources: named raw input streams (unit-interval elements).
        windows: per-source time window sizes, applied at ingestion.
        box: the initial physical plan over the windowed inputs.
        scheduler: ingestion order policy; default global temporal order.
        meter: cost meter shared by all operators; created if omitted.
        metrics: optional recorder for the Figure 4-6 series.
        global_heartbeats: propagate each ingested timestamp to all inputs
            as a heartbeat.  Sound only under the global-order scheduler and
            enabled by default exactly then.
        interval_bound: finite bound on raw input interval lengths; 1 for
            ordinary timestamped inputs (the Section 2.2 conversion), larger
            when a pre-windowed intermediate stream is fed in directly.
        batch_size: cap on the runs the event loop pulls from the
            scheduler; ``1`` is the element-at-a-time loop.
        batch_during_migration: keep batching while a migration strategy is
            installed, provided the strategy declares itself ``batchable``.
            Off by default: one element per turn ticks the strategy after
            every element, which is the reference migration timing; batching is
            snapshot-equivalent but may chunk the strategy's transitions at
            run boundaries.
    """

    def __init__(
        self,
        sources: Dict[str, PhysicalStream],
        windows: Dict[str, Time],
        box: Box,
        scheduler: Optional[Scheduler] = None,
        meter: Optional[CostMeter] = None,
        metrics: Optional[MetricsRecorder] = None,
        global_heartbeats: Optional[bool] = None,
        interval_bound: Time = 1,
        batch_size: int = 64,
        batch_during_migration: bool = False,
    ) -> None:
        missing = set(sources) - set(windows)
        if missing:
            raise ValueError(f"no window size given for sources: {sorted(missing)}")
        self.sources = dict(sources)
        self.windows = dict(windows)
        self.scheduler = scheduler or GlobalOrderScheduler()
        if global_heartbeats is None:
            global_heartbeats = isinstance(self.scheduler, GlobalOrderScheduler)
        self.global_heartbeats = global_heartbeats
        self.meter = meter or CostMeter()
        self.metrics = metrics
        if interval_bound < 1:
            raise ValueError(f"interval_bound must be >= 1, got {interval_bound}")
        self.interval_bound = interval_bound
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.batch_during_migration = batch_during_migration
        self.statistics = StatisticsCatalog()

        self.gate = OutputGate()
        self.routers: Dict[str, Router] = {}
        self._window_ops: Dict[str, TimeWindow] = {}
        for name in sources:
            router = Router(name=f"router[{name}]")
            window_op = TimeWindow(self.windows[name], name=f"window[{name}:{self.windows[name]}]")
            window_op.subscribe(router, 0)
            self.routers[name] = router
            self._window_ops[name] = window_op

        self.box: Box = box
        self._install_box(box)

        self.clock: Time = MIN_TIME
        self.source_watermarks: Dict[str, Time] = {name: MIN_TIME for name in sources}
        self.source_max_ends: Dict[str, Time] = {name: MIN_TIME for name in sources}
        self.source_seen: Dict[str, bool] = {name: False for name in sources}
        self._actions: List[Tuple[Time, int, Callable[[], None]]] = []
        self._action_sequence = 0
        self.strategy: Optional[object] = None
        self.migration_log: List[object] = []
        #: Invoked with the :class:`~repro.core.strategy.MigrationReport`
        #: each time a migration completes; the service layer's controller
        #: uses it to close its hysteresis/cooldown loop.
        self.on_migration_complete: Optional[Callable[[object], None]] = None
        #: Set once every input stream is exhausted; migration strategies
        #: use it to finalise even when the usual progress conditions (all
        #: inputs seen, watermarks past T_split) can no longer be met.
        self.at_end_of_stream = False
        self._finished = False

        if self.metrics is not None:
            recorder = self.metrics
            self.gate.on_delivery = lambda count: recorder.record_output(self.clock, count)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    @property
    def global_window(self) -> Time:
        """The global window constraint ``w`` (maximum over all inputs)."""
        return max(self.windows.values())

    def _install_box(self, box: Box) -> None:
        """Point routers and the gate at ``box`` and wire its meter."""
        for name, router in self.routers.items():
            router.retarget(box.taps.get(name, []))
        box.root.clear_subscribers()
        box.root.attach_sink(self.gate)
        box.set_meter(self.meter)
        self._wire_statistics(box)
        self.box = box

    def _wire_statistics(self, box: Box) -> None:
        """Point operators' selectivity probes at the statistics catalog.

        Operators carrying a ``statistics_key`` (joins compiled by the
        physical builder) report (tested, matched) counts; the catalog
        entry uses the same key the cost model consults, closing the
        monitor → estimate → re-optimize loop of the paper's introduction.
        """
        for operator in box.operators:
            key = getattr(operator, "statistics_key", None)
            if key:
                operator.selectivity_probe = self.statistics.selectivity_of(key).observe

    def add_sink(self, sink: object) -> None:
        """Attach a sink to the query output."""
        self.gate.add_sink(sink)

    # ------------------------------------------------------------------ #
    # Scheduled actions and migration lifecycle
    # ------------------------------------------------------------------ #

    def schedule(self, at: Time, action: Callable[[], None]) -> None:
        """Run ``action`` once the clock reaches application time ``at``."""
        self._action_sequence += 1
        heapq.heappush(self._actions, (at, self._action_sequence, action))

    def schedule_migration(self, at: Time, new_box: Box, strategy: object) -> None:
        """Schedule a migration to ``new_box`` via ``strategy`` at time ``at``."""
        self.schedule(at, lambda: self.start_migration(new_box, strategy))

    @property
    def migration_active(self) -> bool:
        """True while a migration strategy is installed and running."""
        return self.strategy is not None

    def start_migration(self, new_box: Box, strategy: object) -> None:
        """Begin migrating from the current box to ``new_box`` immediately."""
        if self.strategy is not None:
            raise MigrationError("a migration is already in progress")
        new_box.set_meter(self.meter)
        # A strategy refuses a plan outside its scope by raising from
        # begin() before it touches anything; only a strategy that has
        # begun is installed, so a refusal leaves the executor as it was.
        strategy.begin(self, new_box)
        self.strategy = strategy
        self._poll_strategy()

    def _poll_strategy(self) -> None:
        if self.strategy is None:
            return
        self.strategy.after_event(self)
        if self.strategy.finished:
            report = self.strategy.report()
            self.migration_log.append(report)
            self.strategy = None
            if self.on_migration_complete is not None:
                self.on_migration_complete(report)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def state_value_count(self) -> int:
        """Payload values held in all live state (box + migration extras)."""
        total = self.box.state_value_count()
        if self.strategy is not None:
            total += self.strategy.state_value_count()
        return total

    def fingerprint(self) -> Optional[tuple]:
        """Canonical, hashable digest of the executor's complete state.

        The model checker (:mod:`repro.analysis.modelcheck`) prunes its
        schedule exploration on this: two runs whose fingerprints (and
        emitted output prefixes) agree behave identically under every
        continuation, so only one needs exploring further.  The digest
        covers the clock, per-source progress, the window operators, every
        operator of the installed box, the gate's ordering marks, pending
        actions, and — through the strategy's ``phase_state`` hook — all
        migration-owned auxiliary state.  Returns ``None`` when an
        installed strategy is not enumerable (no ``phase_state``), which
        tells the explorer to disable pruning rather than risk unsound
        identification.
        """
        from .box import operator_digest

        strategy_state: Optional[tuple] = None
        if self.strategy is not None:
            hook = getattr(self.strategy, "phase_state", None)
            strategy_state = hook() if callable(hook) else None
            if strategy_state is None:
                return None
        return (
            self.clock,
            tuple(sorted(self.source_watermarks.items())),
            tuple(sorted(self.source_max_ends.items())),
            tuple(sorted(self.source_seen.items())),
            self.at_end_of_stream,
            tuple(
                (name, operator_digest(op))
                for name, op in sorted(self._window_ops.items())
            ),
            self.box.state_digest(),
            tuple(sorted(self.gate.progress_state().items())),
            len(self._actions),
            strategy_state,
        )

    def _sample_metrics(self) -> None:
        if self.metrics is None:
            return
        self.metrics.sample_memory(self.clock, self.state_value_count())
        self.metrics.sample_cost(self.clock, self.meter.total)

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #

    def run(self, batch_size: Optional[int] = None) -> None:
        """Replay all input streams to completion.

        The loop pulls source-pure runs of up to ``batch_size`` elements
        (default: the constructor setting) from the scheduler and ingests
        them group by group; the element stream entering the plan — and
        every byte of output — is the same for every ``batch_size``, and
        ``batch_size=1`` is the element-at-a-time loop.  The run ends with an
        end-of-stream heartbeat on every input, which drains all operator
        state and forces any in-flight migration to its natural completion
        (all watermarks pass ``T_split``).
        """
        if self._finished:
            raise RecoveryError("executor can only run once")
        if batch_size is None:
            batch_size = self.batch_size
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        queues = [SourceQueue(name, stream) for name, stream in self.sources.items()]
        # Undelivered elements per source.  The idle-source promises below
        # key off this countdown rather than live queue emptiness: the
        # batching scheduler pops a lookahead element to detect run
        # boundaries, so a queue can look empty while an element is still
        # in flight — the countdown only reaches zero once every element
        # has actually been handed to the plan.
        remaining = {queue.name: len(queue) for queue in queues}
        for name, batch in self.scheduler.batches(queues, batch_size):
            remaining[name] -= len(batch)
            self._ingest_batch(name, batch, remaining)
        self.finish()

    def _promise_exhausted(self, name: str, remaining: Dict[str, int]) -> None:
        """Heartbeat sources that have delivered their whole stream.

        Without global heartbeats (non-global-order scheduling), a source
        whose stream has ended would stall downstream watermarks until
        end-of-stream; once exhausted it can safely promise the global
        clock.
        """
        clock = self.clock
        for other, left in remaining.items():
            if other != name and left == 0:
                self._window_ops[other].process_heartbeat(clock, 0)

    def _ingest_batch(
        self,
        name: str,
        batch: Batch,
        remaining: Optional[Dict[str, int]] = None,
    ) -> None:
        """Ingest a source-pure run, one turn per uniform-start group.

        While a migration strategy is installed every element is its own
        group — the per-element strategy tick is the reference migration
        timing — unless ``batch_during_migration`` is set and the strategy
        declares itself ``batchable``.
        """
        elements = batch.elements
        n = len(elements)
        i = 0
        while i < n:
            start = elements[i].start
            self._fire_actions(start)
            j = i + 1
            if self.strategy is None or (
                self.batch_during_migration and self.strategy.batchable
            ):
                while j < n and elements[j].start == start:
                    j += 1
            self._turn(name, elements[i:j], remaining)
            i = j

    def _turn(
        self,
        name: str,
        group: List[StreamElement],
        remaining: Optional[Dict[str, int]] = None,
    ) -> None:
        """One ingestion turn: a uniform-start group of one source's elements.

        Clock, metrics bucket, source watermark and the global heartbeat
        fan-out are idempotent within a group, so they run once per group;
        rate observations and max-end tracking stay per element.  A group
        of one enters the plan through ``process``, a longer one through
        ``process_batch``.  The idle-source promises of non-global-
        heartbeat scheduling (``remaining`` given) are the one effect
        that is *not* idempotent mid-group: the element loop first fires
        them after the group's opening element, and state-size-dependent
        charges (``Difference`` finalisation) observe exactly that point —
        so there the opening element goes first, the promises fire, and
        only the tail of the group is batched.
        """
        start = group[0].start
        if start > self.clock:
            self.clock = start
        self._sample_metrics_if_new_bucket()
        if _operator_base.SANITIZER is not None:
            watermark = self.source_watermarks[name]
            for element in group:
                _operator_base.SANITIZER.on_source(name, element, watermark)
        self.source_watermarks[name] = start
        window_size = self.windows[name]
        max_end = self.source_max_ends[name]
        observe = self.statistics.rate_of(name).observe
        for element in group:
            windowed_end = element.end + window_size
            if windowed_end > max_end:
                max_end = windowed_end
            observe(start)
        self.source_max_ends[name] = max_end
        self.source_seen[name] = True
        window_op = self._window_ops[name]
        if self.global_heartbeats:
            # Advance every input to the global clock first, so expirations
            # below the new elements' timestamp apply before they are
            # processed (the global temporal processing order of Section 5).
            for other_op in self._window_ops.values():
                other_op.process_heartbeat(start, 0)
        elif remaining is not None:
            window_op.process(group[0], 0)
            self._promise_exhausted(name, remaining)
            group = group[1:]
        if len(group) == 1:
            window_op.process(group[0], 0)
        elif group:
            window_op.process_batch(Batch._trusted(group, start, name, True), 0)
        self._poll_strategy()

    def _fire_actions(self, up_to: Time) -> None:
        while self._actions and self._actions[0][0] <= up_to:
            action = heapq.heappop(self._actions)[2]
            action()

    # ------------------------------------------------------------------ #
    # Online (incremental) interface
    # ------------------------------------------------------------------ #

    def push(self, name: str, element) -> None:
        """Feed one element online instead of replaying finite streams.

        For long-running use (the actual DSMS setting), construct the
        executor with empty source streams and push elements as they
        arrive; scheduled actions and migrations advance exactly as during
        a replayed run.  Per-source elements must arrive in start-timestamp
        order; ``global_heartbeats`` additionally requires global order.
        """
        if self._finished:
            raise RecoveryError("executor already finished")
        if name not in self._window_ops:
            raise KeyError(f"unknown source {name!r}")
        if self.global_heartbeats and element.start < self.clock:
            raise ValueError(
                f"global-order executor received {name!r} element at "
                f"{element.start} behind the clock {self.clock}"
            )
        self._fire_actions(element.start)
        self._turn(name, [element])

    def push_batch(self, name: str, batch: Batch) -> None:
        """Feed an ordered run of one source's elements online.

        Semantically equivalent to pushing the elements one by one followed
        by :meth:`advance` to the batch's trailing watermark (when it
        promises beyond the last element); uniform-start stretches of the
        run take the amortised batch path through the plan.
        """
        if self._finished:
            raise RecoveryError("executor already finished")
        if name not in self._window_ops:
            raise KeyError(f"unknown source {name!r}")
        first = batch.first_start
        if self.global_heartbeats and first < self.clock:
            raise ValueError(
                f"global-order executor received {name!r} element at "
                f"{first} behind the clock {self.clock}"
            )
        self._ingest_batch(name, batch)
        if batch.watermark > batch.last_start:
            self.advance(name, batch.watermark)

    def advance(self, name: Optional[str], t: Time) -> None:
        """Promise online that ``name`` will not deliver before ``t``.

        ``name=None`` makes the promise for every source in one turn:
        actions fire and the strategy is polled once, every window is
        heartbeated — what the ingest hub owes a query that does not
        consume the element it just published.
        """
        if name is None:
            names = self._window_ops
        elif name in self._window_ops:
            names = (name,)
        else:
            raise KeyError(f"unknown source {name!r}")
        self._fire_actions(t)
        self.clock = max(self.clock, t)
        source_watermarks = self.source_watermarks
        for source in names:
            if source_watermarks[source] < t:
                source_watermarks[source] = t
            self._window_ops[source].process_heartbeat(t, 0)
        self._poll_strategy()

    def finish(self) -> None:
        """End an online session: drain all state and complete migrations."""
        if self._finished:
            return
        self._fire_actions(MAX_TIME)
        self.at_end_of_stream = True
        for window_op in self._window_ops.values():
            window_op.process_heartbeat(MAX_TIME, 0)
        self._poll_strategy()
        if self.strategy is not None:
            raise MigrationError(
                f"migration {self.strategy!r} did not complete by end of stream"
            )
        self._sample_metrics()
        self._finished = True

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def quiesce_for_checkpoint(self) -> None:
        """Verify the executor sits at a consistent cut, or refuse loudly.

        A cut is consistent between ingestion turns when no migration is
        in flight (migration strategies hold auxiliary operators outside
        the box) and no actions are pending (scheduled actions are
        closures, which no snapshot format can serialize faithfully).
        """
        if self._finished:
            raise RecoveryError("cannot checkpoint a finished executor")
        if self.strategy is not None:
            raise RecoveryError(
                "cannot checkpoint while a migration is in flight: wait for "
                f"{self.strategy!r} to complete"
            )
        if self._actions:
            raise RecoveryError(
                f"cannot checkpoint with {len(self._actions)} scheduled "
                "action(s) pending: actions are closures and cannot be "
                "serialized"
            )

    def checkpoint_state(self) -> dict:
        """Capture everything needed to rebuild this executor elsewhere.

        Operator state leaves through the GenMig drain hook
        (``state_of_port``), the boundary fluid migration's seeding also
        crosses, and is recorded for every operator that can absorb it
        back; an operator that holds state (overrides ``state_of_port``)
        but lacks ``absorb_state`` makes the plan non-checkpointable and
        raises — the same condition verifier check CKP001 flags
        statically.
        """
        self.quiesce_for_checkpoint()
        operators = []
        for op in self.box.operators:
            record: Dict[str, object] = {
                "type": type(op).__name__,
                "name": op.name,
                "progress": op.progress_state(),
            }
            if callable(getattr(op, "absorb_state", None)):
                record["ports"] = [op.state_of_port(port) for port in range(op.arity)]
            elif type(op).state_of_port is not Operator.state_of_port:
                raise RecoveryError(
                    f"operator {op.name!r} ({type(op).__name__}) holds state "
                    "but lacks the state_of_port/absorb_state drain hooks — "
                    "the plan is not checkpointable (verifier check CKP001)"
                )
            else:
                record["ports"] = None
            operators.append(record)
        return {
            "clock": self.clock,
            "source_watermarks": dict(self.source_watermarks),
            "source_max_ends": dict(self.source_max_ends),
            "source_seen": dict(self.source_seen),
            "last_bucket": self._last_bucket,
            "meter": {
                "total": self.meter.total,
                "by_category": dict(self.meter.by_category),
            },
            "gate": self.gate.progress_state(),
            "operators": operators,
        }

    def restore_checkpoint(self, state: dict) -> None:
        """Seed a freshly built executor from :meth:`checkpoint_state`.

        The executor must be untouched (same plan, nothing ingested); the
        box is expected to be structurally identical to the checkpointed
        one — same operators in the same discovery order — which holds
        whenever both were built by ``PhysicalBuilder`` from the same
        logical plan.  Progress is restored before state is absorbed: the
        absorbing hooks of Aggregate/Difference derive their finalisation
        frontiers from the purged watermark.
        """
        if (
            self.clock != MIN_TIME
            or any(self.source_seen.values())
            or self._finished
            or self.strategy is not None
            or self.gate.delivered
        ):
            raise RecoveryError("can only restore into a fresh executor")
        records = state["operators"]
        if len(records) != len(self.box.operators):
            raise RecoveryError(
                f"snapshot has {len(records)} operators, the rebuilt plan "
                f"has {len(self.box.operators)}: the plans differ"
            )
        for op, record in zip(self.box.operators, records):
            if record["type"] != type(op).__name__ or record["name"] != op.name:
                raise RecoveryError(
                    f"snapshot operator {record['name']!r} ({record['type']}) "
                    f"does not match rebuilt operator {op.name!r} "
                    f"({type(op).__name__}): the plans differ"
                )
            op.restore_progress(record["progress"])
            if record["ports"] is not None:
                for port, elements in enumerate(record["ports"]):
                    op.absorb_state(port, list(elements))
        self.clock = state["clock"]
        self.source_watermarks = dict(state["source_watermarks"])
        self.source_max_ends = dict(state["source_max_ends"])
        self.source_seen = dict(state["source_seen"])
        self._last_bucket = state["last_bucket"]
        self.meter.total = state["meter"]["total"]
        self.meter.by_category = dict(state["meter"]["by_category"])
        self.gate.restore_progress(state["gate"])

    _last_bucket: Optional[int] = None

    def _sample_metrics_if_new_bucket(self) -> None:
        if self.metrics is None:
            return
        bucket = self.metrics.bucket_of(self.clock)
        if bucket != self._last_bucket:
            self._sample_metrics()
            self._last_bucket = bucket
