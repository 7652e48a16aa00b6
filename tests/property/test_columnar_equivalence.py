"""Byte-identity of columnar and element-wise plan execution.

Every hash join the builder makes probes runs through compiled kernels
over struct-of-arrays batches, and single elements through
``_on_element``.  The kernel path claims to be a pure layout rewrite of
the element path: the identical output stream — same elements, same
delivery order, same flags — and the identical cost-meter totals per
category.  These properties drive hypothesis-generated workloads
through the stateful plan shapes that own a columnar fast path, under
all schedulers, at batch sizes that feed the kernels columnar runs, and
compare against ``batch_size=1`` of the same plan — one element per
turn, the element-wise reference oracle.

A second property migrates a *running* query off a kernel-free box
(``force_nested_loops``) onto a hash-join box mid-stream via GenMig: the
paper's black-box migration cannot tell a kernel-probing box from an
element-wise one, so the output must again be byte-identical with the
element-wise run of the same migration — including the seed of the
join's struct-of-arrays state through ``absorb_state``.

The whole suite runs under the stream-invariant sanitizer (see
``conftest.py``), so any columnar-path violation of ordering, watermark
or emission invariants fails loudly rather than by diff.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GenMig
from repro.engine import GlobalOrderScheduler, QueryExecutor, RoundRobinScheduler
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    Field,
    JoinNode,
    Literal,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
)
from repro.streams import CollectorSink, timestamped_stream

WINDOWS = {"A": 12, "B": 12}

A = Source("A", ["k", "v"])
B = Source("B", ["k"])


def hash_join_plan():
    """A ⋈ B on the key column: the hash-join probe/build kernels."""
    return JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))


def join_chain_plan():
    """A select → project chain *above* the columnar join: the chain
    boxes the join's columnar result runs and forwards row batches."""
    join = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
    return SelectNode(
        ProjectNode(join, [(Field("A.v"), "v"), (Field("B.k"), "bk")]),
        Comparison(">", Field("v"), Literal(1)),
    )


def join_aggregate_plan():
    """Aggregate over a join: columnar result runs reach an operator
    that has no kernel of its own (the aggregate's own equivalence suite
    is ``test_aggregate_equivalence``)."""
    join = JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))
    return AggregateNode(
        join, [AggregateSpec("count"), AggregateSpec("sum", "A.v")]
    )


PLANS = {
    "hash-join": hash_join_plan,
    "join-chain": join_chain_plan,
    "join-aggregate": join_aggregate_plan,
}

#: The two physical builds of one logical plan: hash joins with columnar
#: state (the executor feeds them columnar runs), or nested-loops joins
#: without (fed row batches).
BUILDERS = {
    "columnar": PhysicalBuilder,
    "nested-loops": lambda: PhysicalBuilder(force_nested_loops=True),
}

SCHEDULERS = {
    "global": GlobalOrderScheduler,
    "round-robin-2": lambda: RoundRobinScheduler(batch=2),
    "round-robin-4": lambda: RoundRobinScheduler(batch=4),
}

#: Per source: (key, value, time delta); delta 0 yields equal-timestamp
#: runs, the uniform-start currency of the columnar kernels' run loop.
raw_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=0,
    max_size=30,
)


def make_streams(raw_a, raw_b):
    t, rows_a = 0, []
    for key, value, delta in raw_a:
        t += delta
        rows_a.append(((key, value), t))
    t, rows_b = 0, []
    for key, _, delta in raw_b:
        t += delta
        rows_b.append(((key,), t))
    return {
        "A": timestamped_stream(rows_a, name="A"),
        "B": timestamped_stream(rows_b, name="B"),
    }


def run_once(
    raw_a,
    raw_b,
    plan,
    scheduler,
    batch_size,
    build="columnar",
    migrate_at=None,
    build_new="columnar",
):
    plan_tree = PLANS[plan]()
    box = BUILDERS[build]().build(plan_tree)
    sink = CollectorSink()
    executor = QueryExecutor(
        make_streams(raw_a, raw_b),
        WINDOWS,
        box,
        scheduler=SCHEDULERS[scheduler](),
        batch_size=batch_size,
    )
    executor.add_sink(sink)
    if migrate_at is not None:
        new_box = BUILDERS[build_new]().build(plan_tree)
        executor.schedule_migration(migrate_at, new_box, GenMig())
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
def test_columnar_matches_element_wise(plan, scheduler, batch_size, raw_a, raw_b):
    reference = run_once(raw_a, raw_b, plan, scheduler, batch_size=1)
    columnar = run_once(raw_a, raw_b, plan, scheduler, batch_size=batch_size)
    assert columnar == reference


@settings(max_examples=15, deadline=None)
@given(
    plan=st.sampled_from(sorted(PLANS)),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    batch_size=st.sampled_from([2, 64]),
    migrate_at=st.integers(min_value=0, max_value=40),
    raw_a=raw_stream,
    raw_b=raw_stream,
)
def test_migration_onto_columnar_box_matches_element_wise(
    plan, scheduler, batch_size, migrate_at, raw_a, raw_b
):
    """GenMig from a kernel-free old box onto a *columnar* new box must
    be indistinguishable from the element-wise run of the same migration
    — columnar layout is just another snapshot-equivalent box, and the
    seed travels through absorb_state into the struct-of-arrays join
    state."""
    args = dict(build="nested-loops", migrate_at=migrate_at, build_new="columnar")
    reference = run_once(raw_a, raw_b, plan, scheduler, batch_size=1, **args)
    columnar = run_once(raw_a, raw_b, plan, scheduler, batch_size=batch_size, **args)
    assert columnar == reference


def test_columnar_plan_survives_migration_both_directions():
    """Columnar → columnar round trip: state drained out of one
    struct-of-arrays join and seeded into another stays byte-identical
    to the element-wise run; so do columnar → nested-loops and
    nested-loops → columnar, and all three deliver the same results."""
    raw = [(i % 4, i % 7, i % 2) for i in range(50)]

    def run(build_old, build_new, batch_size):
        return run_once(
            raw, raw, "hash-join", "global", batch_size=batch_size,
            build=build_old, migrate_at=12, build_new=build_new,
        )

    outputs = []
    for old, new in (
        ("columnar", "columnar"),
        ("columnar", "nested-loops"),
        ("nested-loops", "columnar"),
    ):
        batched = run(old, new, batch_size=8)
        assert batched == run(old, new, batch_size=1)
        outputs.append(sorted(batched[0]))
    assert outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
