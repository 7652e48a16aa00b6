"""Byte-identity of batch-mode and element-mode execution.

The batched event loop claims to be a pure re-chunking of the
element-at-a-time loop: same elements in the same global order, same
watermark movements, same staged-release order — hence the *identical*
output stream, element for element, and the identical cost-meter totals
(aggregated charges replace per-candidate charges without changing any
sum).  These properties drive hypothesis-generated two-source workloads
through stateful plans (join, duplicate elimination, grouped aggregation,
difference) and a select → project chain under both the global-order scheduler and the round-robin
scheduler's bounded application-time skew, at several batch sizes, and
compare against ``batch_size=1`` — one element per turn, the
reference.  A second property schedules a GenMig migration mid-run: the
executor drops to element-wise processing while the strategy is installed,
so the migration, too, must leave the output byte-identical.  A third
keeps batching through the migration (``batch_during_migration``) for
every strategy that allows it, so routers, merges and output adapters
take whole runs: the output must stay snapshot-equal to the element-mode
run and — under the package's strict sanitizer — in start order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FluidMigration, GenMig, ReferencePointGenMig, ShortenedGenMig
from repro.engine import Box, GlobalOrderScheduler, QueryExecutor, RoundRobinScheduler
from repro.operators import (
    Aggregate,
    Difference,
    DuplicateElimination,
    NestedLoopsJoin,
    Project,
    Select,
    count,
    equi_join,
)
from repro.streams import CollectorSink, timestamped_stream
from repro.temporal import first_divergence
from scenarios import left_deep_join_box, right_deep_join_box

WINDOWS = {"A": 12, "B": 12}


def join_distinct_box():
    join = NestedLoopsJoin(lambda l, r: l[0] == r[0])
    distinct = DuplicateElimination(name="distinct")
    join.subscribe(distinct, 0)
    return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=distinct)


def distinct_join_box():
    """Snapshot-equivalent to :func:`join_distinct_box` (Figure 2 push-down)."""
    da, db = DuplicateElimination(name="dA"), DuplicateElimination(name="dB")
    join = equi_join(0, 0)
    da.subscribe(join, 0)
    db.subscribe(join, 1)
    return Box(taps={"A": [(da, 0)], "B": [(db, 0)]}, root=join)


def join_aggregate_box():
    join = equi_join(0, 0)
    aggregate = Aggregate([count()], group_key=lambda p: (p[0],))
    join.subscribe(aggregate, 0)
    return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=aggregate)


def select_project_join_box():
    """A plain select → project chain on one input of a join: the
    stateless run body under every batch size."""
    select = Select(lambda p: p[0] > 0, cost=2)
    project = Project(lambda p: (p[0], p[0] + 1))
    join = equi_join(0, 0)
    select.subscribe(project, 0)
    project.subscribe(join, 0)
    return Box(taps={"A": [(select, 0)], "B": [(join, 1)]}, root=join)


def difference_box():
    diff = Difference(name="difference")
    return Box(taps={"A": [(diff, 0)], "B": [(diff, 1)]}, root=diff)


PLANS = {
    "join-distinct": join_distinct_box,
    "join-aggregate": join_aggregate_box,
    "difference": difference_box,
    "select-project-join": select_project_join_box,
}

SCHEDULERS = {
    "global": GlobalOrderScheduler,
    "round-robin-2": lambda: RoundRobinScheduler(batch=2),
    "round-robin-4": lambda: RoundRobinScheduler(batch=4),
}

#: Per source: (payload value, time delta) — delta 0 produces the
#: equal-timestamp runs the uniform-start fast path amortises.
raw_stream = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2)),
    min_size=0,
    max_size=30,
)


def make_streams(**raws_by_name):
    streams = {}
    for name, raws in raws_by_name.items():
        t, rows = 0, []
        for value, delta in raws:
            t += delta
            rows.append((value, t))
        streams[name] = timestamped_stream(rows, name=name)
    return streams


def run_once(raw_a, raw_b, plan, scheduler, batch_size, migrate_at=None, new_plan=None):
    sink = CollectorSink()
    executor = QueryExecutor(
        make_streams(A=raw_a, B=raw_b),
        WINDOWS,
        PLANS[plan]() if isinstance(plan, str) else plan(),
        scheduler=SCHEDULERS[scheduler](),
        batch_size=batch_size,
    )
    executor.add_sink(sink)
    if migrate_at is not None:
        executor.schedule_migration(migrate_at, new_plan(), GenMig())
    executor.run()
    output = [(e.payload, e.start, e.end, e.flag) for e in sink.elements]
    return output, executor.meter.total, dict(executor.meter.by_category)


@settings(max_examples=25, deadline=None)
@given(
    plan=st.sampled_from(sorted(PLANS)),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    batch_size=st.sampled_from([2, 3, 64]),
    raw_a=raw_stream,
    raw_b=raw_stream,
)
def test_batch_mode_matches_element_mode(plan, scheduler, batch_size, raw_a, raw_b):
    reference = run_once(raw_a, raw_b, plan, scheduler, batch_size=1)
    batched = run_once(raw_a, raw_b, plan, scheduler, batch_size=batch_size)
    assert batched == reference


def test_batch_during_migration_stays_snapshot_equivalent():
    """The ``batch_during_migration`` opt-in keeps batching through GenMig's
    parallel phase (exercising the batched Split); the output multiset must
    still match the reference element-mode migration exactly."""
    raw_a = [(i % 3, i % 2) for i in range(40)]
    raw_b = [(i % 3, (i + 1) % 2) for i in range(40)]

    def run(batch_during_migration, batch_size):
        sink = CollectorSink()
        executor = QueryExecutor(
            make_streams(A=raw_a, B=raw_b),
            WINDOWS,
            join_distinct_box(),
            batch_size=batch_size,
            batch_during_migration=batch_during_migration,
        )
        executor.add_sink(sink)
        executor.schedule_migration(10, distinct_join_box(), GenMig())
        executor.run()
        assert len(executor.migration_log) == 1
        return sorted((e.payload, e.start, e.end, e.flag) for e in sink.elements)

    assert run(True, 8) == run(False, 1)


@settings(max_examples=15, deadline=None)
@given(
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    batch_size=st.sampled_from([2, 64]),
    migrate_at=st.integers(min_value=0, max_value=40),
    raw_a=raw_stream,
    raw_b=raw_stream,
)
def test_batch_mode_matches_element_mode_across_migration(
    scheduler, batch_size, migrate_at, raw_a, raw_b
):
    args = dict(migrate_at=migrate_at, new_plan=distinct_join_box)
    reference = run_once(
        raw_a, raw_b, join_distinct_box, scheduler, batch_size=1, **args
    )
    batched = run_once(
        raw_a, raw_b, join_distinct_box, scheduler, batch_size=batch_size, **args
    )
    assert batched == reference


#: Denser than ``raw_stream``: at least 10 elements, half the deltas 0,
#: so runs are longer and one run often holds keys on both sides of a
#: fluid frontier.
burst_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5), st.sampled_from([0, 0, 1, 2])
    ),
    min_size=10,
    max_size=30,
)

#: Every strategy that may keep batching through its parallel phase.
BATCHABLE_STRATEGIES = {
    "genmig": GenMig,
    "genmig-rp": ReferencePointGenMig,
    "genmig-short": ShortenedGenMig,
    "fluid": FluidMigration,
}

#: ``(strategy, scheduler)`` pairs.  Reference point only under global
#: order: under a skewed schedule an input can pass ``T_split`` while
#: another still feeds the old box, and the new box's results overtake
#: the old box's — element-wise as well (ROADMAP, reference-point order).
STRATEGY_SCHEDULES = [
    (strategy, scheduler)
    for strategy in sorted(BATCHABLE_STRATEGIES)
    for scheduler in sorted(SCHEDULERS)
    if strategy != "genmig-rp" or scheduler == "global"
]


@settings(max_examples=100, deadline=None)
@given(
    strategy_schedule=st.sampled_from(STRATEGY_SCHEDULES),
    batch_size=st.sampled_from([2, 64]),
    migrate_at=st.integers(min_value=0, max_value=30),
    raw_a=burst_stream,
    raw_b=burst_stream,
    raw_c=burst_stream,
)
def test_every_strategy_batches_through_its_migration_in_order(
    strategy_schedule, batch_size, migrate_at, raw_a, raw_b, raw_c
):
    """The 3-way join reordered by each strategy, batched through the
    parallel phase: the same snapshots as the element-mode migration, and
    no result delivered out of start order."""
    strategy, scheduler = strategy_schedule

    def run(batch_size, batch_during_migration):
        sink = CollectorSink()
        executor = QueryExecutor(
            make_streams(A=raw_a, B=raw_b, C=raw_c),
            {"A": 12, "B": 12, "C": 12},
            left_deep_join_box(),
            scheduler=SCHEDULERS[scheduler](),
            batch_size=batch_size,
            batch_during_migration=batch_during_migration,
        )
        executor.add_sink(sink)
        executor.schedule_migration(
            migrate_at, right_deep_join_box(), BATCHABLE_STRATEGIES[strategy]()
        )
        executor.run()
        assert len(executor.migration_log) == 1
        assert executor.gate.order_violations == 0
        return sink.elements

    reference = run(1, False)
    assert first_divergence(run(batch_size, True), reference) is None
