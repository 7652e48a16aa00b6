"""Fluid migration is snapshot-equivalent — and output-multiset-identical.

Fluid migration claims a strictly stronger delivery contract than GenMig:
because the frontier routes each element *whole* (no interval splitting at
``T_split``) and each key range's handover is a Moving States step, the
migrated run's output must be the exact multiset of the unmigrated run's
— same payloads, same validity intervals, same multiplicities — not just
snapshot-equivalent.  These hypothesis properties drive three-source
random workloads through the 3-way equi-join reordering (with and without
a mid-tree selection) under every scheduler, several batch sizes and
range counts ``R ∈ {1, 2, 8}``, asserting:

* fluid output ≡ unmigrated output (snapshot equivalence via
  ``first_divergence`` AND multiset byte-identity);
* fluid output ≡ GenMig output (snapshot equivalence — GenMig splits
  intervals at ``T_split``, so byte-identity is not demanded of it);
* fluid output ≡ the relational oracle of Definition 1, snapshot by
  snapshot (``RelationalReference``);
* ``R = 1`` degenerates to a whole-box instant handover: one flip, one
  range-log entry, same outputs.

The suite runs under the strict-gate stream sanitizer like every property
suite (the ``tests/property`` CI step), so ordering — of every operator's
output and of the delivered stream — interval and state-accounting
invariants are checked inside every replayed executor as well.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import RelationalReference, probe_instants, windowed
from repro.core import FluidMigration, GenMig
from repro.engine import (
    Box,
    GlobalOrderScheduler,
    QueryExecutor,
    RoundRobinScheduler,
)
from repro.operators import Select, equi_join
from repro.plans import Comparison, Field, JoinNode, Source
from repro.streams import CollectorSink, timestamped_stream
from repro.temporal import element, first_divergence

WINDOW = 12
WINDOWS = {"A": WINDOW, "B": WINDOW, "C": WINDOW}


def left_deep_box() -> Box:
    j1 = equi_join(0, 0, name="AB")
    j2 = equi_join(0, 0, name="ABC")
    j1.subscribe(j2, 0)
    return Box(taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)]}, root=j2)


def right_deep_box() -> Box:
    j1 = equi_join(0, 0, name="BC")
    j2 = equi_join(0, 0, name="ABC")
    j1.subscribe(j2, 1)
    return Box(taps={"A": [(j2, 0)], "B": [(j1, 0)], "C": [(j1, 1)]}, root=j2)


def _key_filter() -> Select:
    # A filter on the join-key equivalence class (payload column 0 always
    # carries the key value): placeable on either sub-join's output, so
    # the two trees stay snapshot-equivalent.
    return Select(lambda p: p[0] % 7 != 3, name="key-filter")


def selected_left_deep_box() -> Box:
    """Left-deep tree with a selection between the joins.

    Exercises the staged-replay path through a stateless operator: the
    drain must compose the downstream join key backwards through the
    Select when replaying the lower join's staged results.
    """
    j1 = equi_join(0, 0, name="AB")
    j2 = equi_join(0, 0, name="ABC")
    keep = _key_filter()
    j1.subscribe(keep, 0)
    keep.subscribe(j2, 0)
    return Box(taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)]}, root=j2)


def selected_right_deep_box() -> Box:
    j1 = equi_join(0, 0, name="BC")
    j2 = equi_join(0, 0, name="ABC")
    keep = _key_filter()
    j1.subscribe(keep, 0)
    keep.subscribe(j2, 1)
    return Box(taps={"A": [(j2, 0)], "B": [(j1, 0)], "C": [(j1, 1)]}, root=j2)


PLANS = {
    "join3": (left_deep_box, right_deep_box),
    "join3-select": (selected_left_deep_box, selected_right_deep_box),
}

SCHEDULERS = {
    "global": GlobalOrderScheduler,
    "round-robin-2": lambda: RoundRobinScheduler(batch=2),
    "round-robin-4": lambda: RoundRobinScheduler(batch=4),
}

#: Per source: (payload value, time delta).  Values 0..5 spread over the
#: crc32 hash ranges, so multi-range runs really do flip mid-state.
raw_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=2)
    ),
    min_size=0,
    max_size=25,
)


def make_rows(raw):
    t, rows = 0, []
    for value, delta in raw:
        t += delta
        rows.append((value, t))
    return rows


def run_once(
    rows,
    plan_key,
    scheduler,
    batch_size,
    strategy_factory=None,
    migrate_at=10,
    ranges=8,
):
    old_factory, new_factory = PLANS[plan_key]
    streams = {
        name: timestamped_stream(rows[name], name=name) for name in sorted(rows)
    }
    sink = CollectorSink()
    executor = QueryExecutor(
        streams,
        WINDOWS,
        old_factory(),
        scheduler=SCHEDULERS[scheduler](),
        batch_size=batch_size,
    )
    executor.add_sink(sink)
    if strategy_factory is not None:
        executor.schedule_migration(
            migrate_at,
            new_factory(),
            strategy_factory(ranges)
            if strategy_factory is FluidMigration
            else strategy_factory(),
        )
    executor.run()
    return sink.elements, executor


def as_tuples(elements):
    return sorted((e.payload, e.start, e.end, e.flag) for e in elements)


@settings(max_examples=25, deadline=None)
@given(
    plan=st.sampled_from(sorted(PLANS)),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    batch_size=st.sampled_from([1, 2, 8]),
    ranges=st.sampled_from([1, 2, 8]),
    migrate_at=st.integers(min_value=0, max_value=40),
    raw_a=raw_stream,
    raw_b=raw_stream,
    raw_c=raw_stream,
)
# One watermark step covering two distinct result starts, both roots
# owing results: without an order-restoring merge between the roots and
# the gate a [1, 13) result is delivered after two [3, 13) ones.
@example(
    plan="join3", scheduler="round-robin-2", batch_size=1, ranges=8, migrate_at=0,
    raw_a=[(0, 0)], raw_b=[(0, 0), (0, 1), (0, 2)], raw_c=[(0, 0)] * 3,
)
@example(
    plan="join3", scheduler="round-robin-4", batch_size=2, ranges=1, migrate_at=0,
    raw_a=[(0, 0)], raw_b=[(0, 0), (0, 1), (0, 2)], raw_c=[(0, 0)] * 3,
)
# One input's watermark runs ahead: the exhausted A is promised the clock
# while C still lags, and the old A⋈B purges an A element that C can
# still join where the new plan meets a and C directly.  A range flipped
# before C catches up seeds without it: 36 of 42 results, whether the
# purge falls in the parallel phase (migrated at 6) or before it (at 14).
@example(
    plan="join3", scheduler="round-robin-2", batch_size=1, ranges=2, migrate_at=6,
    raw_a=[(0, 0)], raw_b=[(0, 1)] + [(0, 2)] * 6, raw_c=[(0, 0)] * 7,
)
@example(
    plan="join3", scheduler="round-robin-2", batch_size=1, ranges=1, migrate_at=14,
    raw_a=[(0, 0)], raw_b=[(0, 1)] + [(0, 2)] * 6 + [(0, 1)], raw_c=[(0, 0)] * 7,
)
def test_fluid_matches_genmig_and_unmigrated(
    plan, scheduler, batch_size, ranges, migrate_at, raw_a, raw_b, raw_c
):
    rows = {"A": make_rows(raw_a), "B": make_rows(raw_b), "C": make_rows(raw_c)}
    base, _ = run_once(rows, plan, scheduler, batch_size)
    genmig, _ = run_once(
        rows, plan, scheduler, batch_size, GenMig, migrate_at=migrate_at
    )
    fluid, executor = run_once(
        rows,
        plan,
        scheduler,
        batch_size,
        FluidMigration,
        migrate_at=migrate_at,
        ranges=ranges,
    )
    assert first_divergence(base, genmig) is None
    assert first_divergence(base, fluid) is None
    # The stronger fluid-only contract: byte-identical output multiset.
    assert as_tuples(fluid) == as_tuples(base)
    assert executor.gate.order_violations == 0


@settings(max_examples=15, deadline=None)
@given(
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    batch_size=st.sampled_from([1, 8]),
    ranges=st.sampled_from([1, 2, 8]),
    migrate_at=st.integers(min_value=0, max_value=40),
    raw_a=raw_stream,
    raw_b=raw_stream,
    raw_c=raw_stream,
)
def test_fluid_matches_relational_oracle(
    scheduler, batch_size, ranges, migrate_at, raw_a, raw_b, raw_c
):
    rows = {"A": make_rows(raw_a), "B": make_rows(raw_b), "C": make_rows(raw_c)}
    out, _ = run_once(
        rows,
        "join3",
        scheduler,
        batch_size,
        FluidMigration,
        migrate_at=migrate_at,
        ranges=ranges,
    )
    windowed_streams = {
        name: windowed(
            [element((value,), t, t + 1) for value, t in rows[name]], WINDOW
        )
        for name in rows
    }
    reference = RelationalReference(windowed_streams)
    a, b, c = Source("A", ["a"]), Source("B", ["b"]), Source("C", ["c"])
    plan = JoinNode(
        JoinNode(a, b, Comparison("=", Field("A.a"), Field("B.b"))),
        c,
        Comparison("=", Field("A.a"), Field("C.c")),
    )
    instants = probe_instants(*windowed_streams.values())
    assert reference.check(plan, out, instants) is None


def test_single_range_degenerates_to_whole_box_handover():
    """``R = 1`` is one Moving States step behind the frontier: a single
    flip (one range-log entry) that hands the entire state over at once,
    still output-identical to the unmigrated run."""
    raw = [(i * 7 % 6, 1 if i % 3 else 0) for i in range(60)]
    rows = {
        "A": make_rows(raw),
        "B": make_rows(raw[1:]),
        "C": make_rows(raw[2:]),
    }
    base, _ = run_once(rows, "join3", "global", 1)
    out, executor = run_once(
        rows, "join3", "global", 1, FluidMigration, migrate_at=15, ranges=1
    )
    assert as_tuples(out) == as_tuples(base)
    assert len(executor.migration_log) == 1
    report = executor.migration_log[0]
    assert report.strategy == "fluid"
    assert report.extra["ranges"] == 1
    assert len(report.extra["range_log"]) == 1
