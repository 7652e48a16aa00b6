"""The four hot-path workloads: generated feeds, plans, sessions.

Every workload is a closed loop at saturation over a feed generated from
``random.Random(seed)``; the program under test only ever sees the
generated inputs.  A workload knows how to *prepare* itself (compile or
build its plans, generate its feed — the set-up the benchmark times) and
how to *open* a fresh session: a new executor or service plus freshly
built ``Batch`` objects, so nothing cached on a batch or an operator
survives from one pass to the next.

Why these four (the README has the long form):

* ``join4_steady``     — the steady-state ceiling: all time in ``operators``
  (hash-join probe/insert/purge) and the emit path; no ``core``/``service``.
* ``join4_migrate``    — the same feed with three migrations (reference
  point, GenMig + Coalesce, fluid): the paper's Fig. 4-6 regime; ``core``.
* ``distinct_migrate`` — Figure 2's DISTINCT query over Zipf keys, migrated
  with GenMig + Coalesce: element-wise state, real coalescing, few results.
* ``service_fanout``   — CQL queries on one ``ContinuousQueryService``,
  published one element at a time, migrating autonomously: ``service`` and
  ``engine`` per-push bookkeeping.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import strategy as strategy_module
from repro.cql import translate
from repro.cql.translate import Catalog
from repro.engine.executor import QueryExecutor
from repro.optimizer.rules import push_down_distinct
from repro.plans.expressions import Comparison, Field
from repro.plans.logical import JoinNode, LogicalPlan, Query, Source
from repro.plans.physical import PhysicalBuilder
from repro.service import ContinuousQueryService, ControllerPolicy
from repro.streams.sinks import CollectorSink
from repro.streams.stream import PhysicalStream
from repro.temporal.batch import Batch
from repro.temporal.element import element
from repro.temporal.snapshot import first_divergence

#: Strategy name → the code a pass stores per push (0 = no migration).
STRATEGY_CODES = {"genmig-rp": 1, "genmig": 2, "fluid": 3}
#: Code → the short name used in ``core.<name>.*`` metrics.
STRATEGY_LABELS = {1: "rp", 2: "genmig", 3: "fluid"}

#: A controller that never acts: warm-up it cannot reach.
CONTROLLER_OFF = ControllerPolicy(warmup_observations=10**12)


def _strategy_code(executor: QueryExecutor) -> int:
    strategy = executor.strategy
    return 0 if strategy is None else STRATEGY_CODES.get(strategy.name, 0)


# --------------------------------------------------------------------- #
# Sessions: what one pass drives
# --------------------------------------------------------------------- #


class ExecutorSession:
    """One ``QueryExecutor`` fed through ``push_batch``."""

    def __init__(self, executor: QueryExecutor, builder: PhysicalBuilder) -> None:
        self.executor = executor
        self.builder = builder
        self.sink = CollectorSink()
        executor.add_sink(self.sink)
        self.push = executor.push_batch

    def migrating(self) -> int:
        return _strategy_code(self.executor)

    def migrate(self, plan: LogicalPlan, prefer: str) -> None:
        """Start migrating to ``plan`` with the strategy ``prefer`` selects."""
        new_box = self.builder.build(plan)
        strategy = strategy_module.select_strategy(
            self.executor.box, new_box, prefer=prefer
        )
        self.executor.start_migration(new_box, strategy)

    def finish(self) -> None:
        self.executor.finish()

    def state_values(self) -> int:
        return self.executor.state_value_count()

    def migrations(self) -> list:
        return self.executor.migration_log

    def results(self) -> List[list]:
        return [self.sink.elements]


class ServiceSession:
    """One ``ContinuousQueryService`` fed through ``publish``."""

    def __init__(self, service: ContinuousQueryService) -> None:
        self.service = service
        self.push = service.publish
        self._executors = [handle.executor for handle in service.registry.handles()]

    def migrating(self) -> int:
        for executor in self._executors:
            if executor.strategy is not None:
                return _strategy_code(executor)
        return 0

    def finish(self) -> None:
        self.service.finish()

    def state_values(self) -> int:
        return sum(executor.state_value_count() for executor in self._executors)

    def migrations(self) -> list:
        return [report for executor in self._executors for report in executor.migration_log]

    def results(self) -> List[list]:
        return [handle.results for handle in self.service.registry.handles()]


# --------------------------------------------------------------------- #
# Workload base
# --------------------------------------------------------------------- #


class Workload:
    """A seeded feed plus the plans it runs against.

    After :meth:`prepare`: ``sizes[i]`` is the number of input elements of
    feed entry ``i`` and ``times[i]`` its application time.  ``timings``
    collects the set-up steps in seconds (``cql``, ``build``, ``feed``).
    """

    name = "abstract"
    #: Migrations every pass must log as completed.
    expected_migrations = 0
    #: Input elements a pass must push while a migration is in flight.
    min_in_migration = 0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.sizes: List[int] = []
        self.times: List[int] = []
        self.timings: Dict[str, float] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def open(self) -> Tuple[object, List[tuple]]:
        """A fresh session and the argument tuples of its ``push`` calls."""
        raise NotImplementedError

    def actions(self, session) -> Dict[int, Callable[[], None]]:
        """Feed index → call to make just before that push (migrations)."""
        return {}

    def fixed_codes(self) -> Optional[bytes]:
        """Per-push migration codes fixed by application time, or ``None``
        when the pass reads them off the live session."""
        return None

    def twin_check(self, reference: Dict[str, object]) -> Optional[str]:
        """Compare a migrated run with its unmigrated twin.

        ``reference`` holds the count pass's exact counts.  Returns ``None``
        when the twins agree (or the workload has none), a description of
        the first divergence otherwise.
        """
        return None

    def recovery(self) -> Tuple[ContinuousQueryService, Callable, List[tuple], Optional[Dict[str, Query]]]:
        """A controller-less service, the call that feeds it, the warm-up
        feed that fills its state, and the ``queries=`` restore needs."""
        raise NotImplementedError

    def _timed(self, step: str, start: float) -> None:
        self.timings[step] = self.timings.get(step, 0.0) + time.perf_counter() - start


def digest(session) -> Tuple[int, int]:
    """Result count and order-insensitive checksum of a finished session.

    Interval endpoints are rounded up to the next instant first: the time
    domain is discrete and ``T_split`` lies between two instants, so a
    result GenMig cut there covers the same instants as its uncut twin.
    """
    count = checksum = 0
    ceil = math.ceil
    for query, elements in enumerate(session.results()):
        count += len(elements)
        for item in elements:
            checksum += hash((query, item.payload, ceil(item.start), ceil(item.end)))
    return count, checksum & ((1 << 64) - 1)


def replay(session, calls: Sequence[tuple], actions: Optional[Dict[int, Callable]] = None):
    """Run ``calls`` through ``session`` untimed and finish it; returns it."""
    actions = actions or {}
    for index, call in enumerate(calls):
        if index in actions:
            actions[index]()
        session.push(*call)
    session.finish()
    return session


def _runs_to_calls(runs: Sequence[Tuple[str, list]]) -> List[tuple]:
    """Fresh ``Batch`` objects for one pass (validated constructor)."""
    return [(name, Batch(elements, source=name)) for name, elements in runs]


class ExecutorWorkload(Workload):
    """One query on one ``QueryExecutor``, migrated at fixed application times.

    Subclasses set ``triggers`` and ``migrations`` in ``__init__`` and, in
    ``prepare``, ``query``, ``plans`` (``plans[0]`` runs first), ``builder``
    and ``runs`` (per-(chronon, source) element lists).
    """

    #: Application times at which the migrations start.
    triggers: Tuple[int, ...] = ()
    #: Per trigger: (``select_strategy`` preference, index into ``plans``).
    migrations: Tuple[Tuple[str, int], ...] = ()

    def open(self) -> Tuple[ExecutorSession, List[tuple]]:
        start = time.perf_counter()
        windows = self.query.windows
        executor = QueryExecutor(
            {name: PhysicalStream([], name) for name in windows},
            dict(windows),
            self.builder.build(self.plans[0]),
            # Keep the batch path through a migration's parallel phase, so
            # a migrating run differs from a steady one in the migration only.
            batch_during_migration=True,
        )
        self._timed("build", start)
        start = time.perf_counter()
        calls = _runs_to_calls(self.runs)
        self._timed("feed", start)
        return ExecutorSession(executor, self.builder), calls

    def _trigger_indices(self) -> List[int]:
        return [bisect.bisect_left(self.times, at) for at in self.triggers]

    def actions(self, session: ExecutorSession) -> Dict[int, Callable[[], None]]:
        return {
            index: (lambda prefer=prefer, plan=self.plans[which]: session.migrate(plan, prefer))
            for index, (prefer, which) in zip(self._trigger_indices(), self.migrations)
        }

    def recovery(self):
        service = ContinuousQueryService(policy=CONTROLLER_OFF)
        service.register(self.name, self.query)
        warm = self._trigger_indices()[0]
        return (
            service, service.hub.push_batch, _runs_to_calls(self.runs[:warm]),
            {self.name: self.query},
        )


# --------------------------------------------------------------------- #
# join4_steady / join4_migrate
# --------------------------------------------------------------------- #


def _equi(left: str, right: str) -> Comparison:
    return Comparison("=", Field(f"{left}.k"), Field(f"{right}.k"))


def _join4_plans() -> Tuple[LogicalPlan, LogicalPlan]:
    """Left-deep ``((A⋈B)⋈C)⋈D`` and right-deep ``A⋈(B⋈(C⋈D))`` on one key."""
    a, b, c, d = (Source(name, ["k"]) for name in "ABCD")
    left = JoinNode(JoinNode(JoinNode(a, b, _equi("A", "B")), c, _equi("A", "C")), d, _equi("A", "D"))
    right = JoinNode(a, JoinNode(b, JoinNode(c, d, _equi("C", "D")), _equi("B", "C")), _equi("A", "B"))
    return left, right


class Join4(ExecutorWorkload):
    """4-way windowed equi-join ``A=B=C=D``; optionally migrated three times.

    Uniform keys over a domain sized for about three results per input
    element; ``rate`` elements per chronon per stream arrive as one
    per-(chronon, source) run, so batches are ``rate`` long.  The steady
    and the migrating variant share feed, plan and trigger times: the
    steady one reports its "migration" metrics over the fixed slices
    ``[trigger, trigger + window)`` so the two divide into the paper's
    Fig. 4/6 dip.
    """

    SOURCES = "ABCD"
    RATE = 4

    def __init__(self, seed: int, smoke: bool, migrate: bool) -> None:
        super().__init__(seed, smoke)
        self.name = "join4_migrate" if migrate else "join4_steady"
        self.migrate = migrate
        self.window = 40 if smoke else 312
        # rate * window / domain = 1.49 live partners per key and stream:
        # 1.49 ** 3 = 3.3 four-way results per input element once warm.
        self.domain = round(self.RATE * self.window / 1.49)
        span = self.window + 1          # a GenMig / reference-point migration
        gap = self.window + 8           # steady running after each migration
        first = self.window + 18        # windows full before the first trigger
        self.triggers = (first, first + span + gap, first + 2 * (span + gap))
        # Fluid flips its last range 7/8 of a span in and completes one
        # span later; leave it two spans, then one more steady window.
        self.span = self.triggers[2] + 2 * span + gap
        if migrate:
            # Reference point, GenMig + Coalesce, fluid: left → right → left → right.
            self.migrations = (("auto", 1), ("coalesce", 0), ("fluid", 1))
            self.expected_migrations = len(self.migrations)
            self.min_in_migration = 0 if smoke else 5000

    def prepare(self) -> None:
        start = time.perf_counter()
        self.plans = _join4_plans()
        self.query = Query(self.plans[0], {name: self.window for name in self.SOURCES})
        self.builder = PhysicalBuilder()
        self._timed("build", start)
        start = time.perf_counter()
        rng = random.Random(self.seed)
        draw, domain, rate = rng.randrange, self.domain, self.RATE
        self.runs = [
            (name, [element((draw(domain),), t, t + 1) for _ in range(rate)])
            for t in range(self.span)
            for name in self.SOURCES
        ]
        self.sizes = [rate] * len(self.runs)
        self.times = [t for t in range(self.span) for _ in self.SOURCES]
        self._timed("feed", start)

    def fixed_codes(self) -> Optional[bytes]:
        if self.migrate:
            return None
        codes = bytearray(len(self.times))
        for code, at in enumerate(self.triggers, start=1):
            lo = bisect.bisect_left(self.times, at)
            hi = bisect.bisect_left(self.times, at + self.window)
            codes[lo:hi] = bytes([code]) * (hi - lo)
        return bytes(codes)

    def twin_check(self, reference: Dict[str, object]) -> Optional[str]:
        """Every strategy here is exact on joins: instant for instant, the
        migrated run must deliver the results the unmigrated one does."""
        if not self.migrate:
            return None
        steady = digest(replay(*self.open()))
        migrated = (reference["results_out"], reference["checksum"])
        if steady != migrated:
            return f"(count, checksum) {migrated} != unmigrated {steady}"
        return None


# --------------------------------------------------------------------- #
# distinct_migrate
# --------------------------------------------------------------------- #


def _zipf_sampler(rng: random.Random, n: int, s: float) -> Callable[[], int]:
    """Draws ranks ``0..n-1`` with probability proportional to ``1/(rank+1)**s``."""
    cumulative = list(itertools.accumulate(1.0 / rank**s for rank in range(1, n + 1)))
    total = cumulative[-1]
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


class DistinctMigrate(ExecutorWorkload):
    """The paper's Figure 2 query, migrated to its distinct-pushed-down twin.

    Zipf-skewed items make duplicate elimination do real work and give
    Coalesce halves to merge; prices are drawn so that about one bid
    in seven passes ``price > 50``, which keeps the output under a fifth
    of a result per input element — the opposite profile to ``join4_*``.
    GenMig + Coalesce is the only sound strategy for these plans.
    """

    name = "distinct_migrate"
    RATE = 4
    ZIPF_S = 0.8
    PRICES = 60
    migrations = (("coalesce", 1), ("coalesce", 0), ("coalesce", 1))
    expected_migrations = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.window = 50 if smoke else 400
        self.items = 400 if smoke else 3000
        w = self.window
        self.triggers = (w + 20, 3 * w + 30, 5 * w + 40)
        self.span = 7 * w + 60
        self.min_in_migration = 0 if smoke else 5000
        self.cql = (
            f"SELECT DISTINCT b.item FROM bids [RANGE {w}] b, sales [RANGE {w}] s "
            "WHERE b.item = s.item AND b.price > 50"
        )

    def prepare(self) -> None:
        start = time.perf_counter()
        catalog = Catalog({"bids": ("item", "price"), "sales": ("item", "amount")})
        self.query = translate.compile_query(self.cql, catalog, time_scale=1)
        self._timed("cql", start)
        start = time.perf_counter()
        self.plans = (self.query.plan, push_down_distinct(self.query.plan))
        self.builder = PhysicalBuilder()
        self._timed("build", start)
        start = time.perf_counter()
        rng = random.Random(self.seed)
        item = _zipf_sampler(rng, self.items, self.ZIPF_S)
        draw, rate = rng.randrange, self.RATE
        self.runs = []
        for t in range(self.span):
            self.runs.append(("b", [element((item(), draw(self.PRICES)), t, t + 1) for _ in range(rate)]))
            self.runs.append(("s", [element((item(), draw(100)), t, t + 1) for _ in range(rate)]))
        self.sizes = [rate] * len(self.runs)
        self.times = [t for t in range(self.span) for _ in "bs"]
        self._timed("feed", start)

    def twin_check(self, reference: Dict[str, object]) -> Optional[str]:
        """GenMig + Coalesce promises snapshot equivalence, not equal
        multisets: compare snapshots, on the smoke-sized feed (the oracle
        is quadratic)."""
        small = DistinctMigrate(self.seed, smoke=True)
        small.prepare()
        session, calls = small.open()
        migrated = replay(session, calls, small.actions(session))
        plain = replay(*small.open())
        if len(migrated.migrations()) != small.expected_migrations:
            return "the migrated twin did not complete its migrations"
        instant = first_divergence(migrated.results()[0], plain.results()[0])
        return None if instant is None else f"snapshots differ at instant {instant}"


# --------------------------------------------------------------------- #
# service_fanout
# --------------------------------------------------------------------- #


class ServiceFanout(Workload):
    """Six CQL queries on one service; the controller migrates on its own.

    Three sources.  In even phases ``C`` is fast and ``A``/``B`` trickle;
    odd phases flip that, which flips the best order of the 3-way join,
    and the controller's periodic rounds pick it up — no manual
    ``start_migration`` anywhere.  The DISTINCT join migrates once to its
    pushed-down form.  Timestamps are sparse (at most one element per
    source per chronon) because the rate estimators' half-life is 5000
    chronons: a flip must last thousands of chronons to be noticed, and a
    window of 2400 chronons then keeps a migration in flight for well
    over half of the pass.  The two aggregates read a short window: their
    finalisation is linear in open state per watermark step and would
    otherwise turn this into an aggregate benchmark.
    """

    name = "service_fanout"
    SCHEMAS = {"A": ("x", "v", "g"), "B": ("y", "v"), "C": ("z", "v")}
    FAST_EVERY = 2
    SLOW_EVERY = 100
    DOMAIN = 800
    POLICY = dict(
        period=250,
        warmup_observations=25,
        cooldown=1000,
        improvement_threshold=0.85,
        migration_cost_per_value=0.01,
        savings_horizon=500.0,
    )

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.window = 200 if smoke else 2400
        self.phase = 3000
        self.phases = 2 if smoke else 4
        # The DISTINCT join once, the 3-way join at every flip.
        self.expected_migrations = self.phases - 1
        # The last phase runs this much longer: a migration the controller
        # decides a round or two later on another seed still completes.
        self.tail = 500
        self.min_in_migration = 0 if smoke else 5000
        w, short = self.window, 40
        self.queries = {
            "chain_a": f"SELECT A.x, A.v FROM A [RANGE {w}] WHERE A.v > 10 AND A.v < 90",
            "chain_b": f"SELECT B.y FROM B [RANGE {w}] WHERE B.v > 50",
            "sum_a": f"SELECT A.g, SUM(A.v) FROM A [RANGE {short}] GROUP BY A.g",
            "count_c": f"SELECT COUNT(*) FROM C [RANGE {short}]",
            "distinct_ab": (
                f"SELECT DISTINCT A.x FROM A [RANGE {w}], B [RANGE {w}] WHERE A.x = B.y"
            ),
            "join3": (
                f"SELECT * FROM A [RANGE {w}], B [RANGE {w}], C [RANGE {w}] "
                "WHERE A.x = B.y AND B.y = C.z"
            ),
        }

    def prepare(self) -> None:
        start = time.perf_counter()
        rng = random.Random(self.seed)
        draw, domain = rng.randrange, self.DOMAIN
        self.calls: List[tuple] = []
        for t in range(self.phases * self.phase + self.tail):
            ab_fast = min(t // self.phase, self.phases - 1) % 2 == 1
            for offset, source in enumerate("ABC"):
                fast = ab_fast if source != "C" else not ab_fast
                every = self.FAST_EVERY if fast else self.SLOW_EVERY
                if t % every != offset % every:
                    continue
                payload = (draw(domain), draw(100))
                if source == "A":
                    payload += (draw(3),)
                self.calls.append((source, payload, t))
        self.sizes = [1] * len(self.calls)
        self.times = [call[2] for call in self.calls]
        self._timed("feed", start)

    def _service(self, policy: ControllerPolicy) -> ContinuousQueryService:
        service = ContinuousQueryService(
            catalog=Catalog(self.SCHEMAS), policy=policy, time_scale=1
        )
        for name, text in self.queries.items():
            service.register(name, text)
        return service

    def open(self) -> Tuple[ServiceSession, List[tuple]]:
        start = time.perf_counter()
        service = self._service(ControllerPolicy(**self.POLICY))
        self._timed("register", start)
        return ServiceSession(service), self.calls

    def twin_check(self, reference: Dict[str, object]) -> Optional[str]:
        # The prefix ends once the first autonomous migration of the count
        # pass (the DISTINCT join, decided while A and B still trickle) is
        # through: the snapshot oracle is quadratic.
        first_done = min(int(migration[2]) for migration in reference["migrations"])
        until = bisect.bisect_left(self.times, first_done + self.window // 10)
        migrated, plain = (
            replay(ServiceSession(self._service(policy)), self.calls[:until])
            for policy in (ControllerPolicy(**self.POLICY), CONTROLLER_OFF)
        )
        if plain.migrations():
            return "the unmigrated twin migrated"
        moved = [
            handle.name
            for handle in migrated.service.registry.handles()
            if handle.migrations
        ]
        if not moved:
            return "no query migrated on the twin prefix"
        for name in moved:
            instant = first_divergence(
                migrated.service.results(name), plain.service.results(name)
            )
            if instant is not None:
                return f"{name}: snapshots differ at instant {instant}"
        return None

    def recovery(self):
        service = self._service(CONTROLLER_OFF)
        # Checkpoints cannot be restored from CQL once a query has
        # migrated, so the warm state is taken with the controller off.
        warm = bisect.bisect_left(self.times, self.window + self.window // 5)
        return service, service.publish, self.calls[:warm], None


def make(name: str, seed: int, smoke: bool) -> Workload:
    """The workload registered under ``name``."""
    if name == "join4_steady":
        return Join4(seed, smoke, migrate=False)
    if name == "join4_migrate":
        return Join4(seed, smoke, migrate=True)
    if name == "distinct_migrate":
        return DistinctMigrate(seed, smoke)
    if name == "service_fanout":
        return ServiceFanout(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("join4_steady", "join4_migrate", "distinct_migrate", "service_fanout")
