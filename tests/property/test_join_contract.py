"""The run contract of the hash join: a batch is its elements.

``HashJoin`` probes every run through its compiled kernel — over the
batch's column view, whether the run was built from columns or from
elements — and a single element through ``_on_element``.  For every shape of run the
kernel path must be indistinguishable from element-wise ``process``
followed by a heartbeat at the trailing watermark: the same stream at
every receiver, the same meter charges per category, the same selectivity
totals, the same progress marks and staged output, and the same join
state — right after the run and again once both inputs end.

The cases cover both input ports; uniform and non-uniform runs; a
trailing watermark at and above the last start; a partner input behind
the run, level with it (the purge between the first element and the tail
drops a partner that the first element still counts as a candidate), and
ahead of it (results starting after the run are staged, not forwarded,
even when the rest of the same probe output is due); one
receiver (the columnar fast branch) and two (always staged); a
flagged run or flagged partner state, which the kernel does not model and
hands to the generic element protocol; and the port's progress before
the run (``PROGRESS``), which decides whether a uniform run is probed in
one kernel call or split around its first element's purge or promise.
Receivers record every promise that raises their watermark in place, so
a promise released after results it preceded is a difference.

Both joins keep their sides in the same container, so the nested-loops
join under an equality predicate must be the hash join, observably: a
differential property feeds both the same events — flagged elements,
out-of-order ends, uniform runs, and Parallel Track's retention rule
installed mid-run — and compares them after every one: output, state per
join key, value counts, progress and staged results.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BATCH_BUILDERS
from repro.operators import CostMeter, NestedLoopsJoin, equi_join
from repro.temporal import NEW, OLD, element
from repro.temporal.batch import Batch
from repro.temporal.time import MAX_TIME, MIN_TIME

#: ``(start, key)`` runs fed on the port under test.
RUNS = {
    "uniform": [(5, 0), (5, 1), (5, 0), (5, 3)],
    "non-uniform": [(5, 0), (5, 2), (6, 1), (8, 0)],
    # Against a partner ahead, the tail's first result starts at the run
    # start and its last after it: one probe output, only part of it due.
    "ahead-tail": [(5, 1), (5, 1), (5, 0)],
}

#: Partner-input start timestamps (keys 0, 1, 0, 2); the first partner
#: element ends at its start + 4, so a partner at 1 expires at 5.
PARTNERS = {"behind": (1, 1, 1, 1), "level": (1, 3, 5, 5), "ahead": (1, 3, 7, 7)}

FLAGS = ("none", "run", "partner")


#: What the port under test has been told before the run: nothing beyond
#: the prefix; a heartbeat at the run start (the executor's global
#: heartbeats); or that heartbeat, then a restore into a fresh join whose
#: emitted mark lags its purged mark (a checkpoint taken between a purge
#: and its promise), so the run's first advance still owes a promise.
PROGRESS = ("none", "heartbeat", "restored")

RUN_START = 5


class Probe:
    """A receiver recording its stream — each promise that raises its
    watermark included, in place — and the batches it was handed."""

    arity = 1

    def __init__(self, watermark):
        self.trace = []
        self.batches = []
        self.watermark = watermark

    def process(self, e, port=0):
        self.trace.append((e.payload, e.start, e.end, e.flag))

    def process_batch(self, batch, port=0):
        self.batches.append(batch)
        for e in batch.elements:
            self.process(e, port)
        self.process_heartbeat(batch.watermark, port)

    def process_heartbeat(self, t, port=0):
        if t > self.watermark:
            self.trace.append(("promise", t))
            self.watermark = t


def as_tuples(elements):
    return [(e.payload, e.start, e.end, e.flag) for e in elements]


class Counted:
    """A probe kernel recording the ``(lo, hi)`` slice of each call."""

    def __init__(self, kernel, calls):
        self.kernel = kernel
        self.calls = calls

    def __call__(self, *args):
        self.calls.append(args[:2])
        return self.kernel(*args)


def observe(feed, port, partner, flags, receivers, progress):
    """Run ``feed(join)`` after a fixed prefix; everything observable after,
    and the ``(lo, hi)`` slice of every kernel call the run made."""
    join = equi_join(0, 0)
    for i, (start, key) in enumerate(zip(PARTNERS[partner], (0, 1, 0, 2))):
        e = element((key, "p"), start, start + (4 if i == 0 else 12))
        join.process(e.with_flag(OLD) if flags == "partner" else e, 1 - port)
    join.process(element((0, "own"), 2, 6), port)
    if progress != "none":
        join.process_heartbeat(RUN_START, port)
    if progress == "restored":
        saved = join.progress_state()
        saved["emitted_watermark"] = saved["purged_watermark"] - 1
        restored = equi_join(0, 0)
        restored.restore_progress(saved)
        for p in (0, 1):
            restored.absorb_state(p, join.state_of_port(p))
        join = restored
    join.meter = CostMeter()
    selectivity = [0, 0]

    def tally(tested, matched):
        selectivity[0] += tested
        selectivity[1] += matched

    join.selectivity_probe = tally
    # Receivers join after the prefix, holding what it already promised.
    probes = [Probe(join.progress_state()["emitted_watermark"]) for _ in range(receivers)]
    for probe in probes:
        join.subscribe(probe, 0)
    calls = []
    join._kernels = tuple(Counted(kernel, calls) for kernel in join._kernels)
    feed(join)

    def snapshot():
        progress = join.progress_state()
        return (
            [probe.trace[:] for probe in probes],
            [probe.watermark for probe in probes],
            list(join.meter.by_category.items()),
            list(selectivity),
            progress["watermarks"],
            progress["emitted_watermark"],
            progress["purged_watermark"],
            as_tuples(progress["staged"]),
            [as_tuples(join.state_of_port(p)) for p in (0, 1)],
            join.state_value_count(),
        )

    after_run = snapshot()
    join.process_heartbeat(MAX_TIME, 0)
    join.process_heartbeat(MAX_TIME, 1)
    return (after_run, snapshot()), [probe.batches for probe in probes], calls


@pytest.mark.parametrize(
    "port,run,trailing,partner,receivers,flags,progress",
    itertools.product(
        (0, 1), sorted(RUNS), (0, 3), sorted(PARTNERS), (1, 2), FLAGS, PROGRESS
    ),
)
def test_kernel_run_equals_elementwise_process(
    port, run, trailing, partner, receivers, flags, progress
):
    elements = [
        element((key, i), start, start + 12) for i, (start, key) in enumerate(RUNS[run])
    ]
    assert elements[0].start == RUN_START
    if flags == "run":
        elements[1] = elements[1].with_flag(NEW)
    watermark = elements[-1].start + trailing

    def elementwise(join):
        for e in elements:
            join.process(e, port)
        join.process_heartbeat(watermark, port)

    reference, _, _ = observe(elementwise, port, partner, flags, receivers, progress)
    assert reference[1][0][0], "the case must produce results"
    for layout, build in BATCH_BUILDERS.items():

        def batched(join):
            join.process_batch(build(elements, watermark=watermark, source="s"), port)

        observed, batches, calls = observe(
            batched, port, partner, flags, receivers, progress
        )
        assert observed == reference, layout
        forwarded = [batch for handed in batches for batch in handed]
        if receivers == 2 or flags != "none":
            assert not forwarded, "staged results leave one element at a time"
        elif partner == "level" and progress == "none":
            assert forwarded, "the fast branch forwards one run of columns"
        if flags != "none":
            assert not calls, "flags take the element protocol"
        elif run != "non-uniform":
            # The first element's advance would purge (the run moves the
            # minimum watermark) or promise (restored) — unless the port
            # already stands at the run start, or the partner lags anyway.
            pending = progress == "restored" or (
                progress == "none" and partner != "behind"
            )
            n = len(elements)
            assert calls == ([(0, 1), (1, n)] if pending else [(0, n)])


#: The Parallel Track tuple-timestamp retention window.
WINDOW = 25


def pt_retention(e):
    """The Zhu et al. rule Parallel Track installs on old-box joins."""
    return max(e.end, e.start + WINDOW)


flag = st.sampled_from([None, None, NEW, OLD])
differential_event = st.one_of(
    # (port, key, delta, length, flag): lengths vary, so ends arrive out
    # of order and a purge must look past a bucket's head.
    st.tuples(
        st.just("element"), st.integers(0, 1), st.integers(0, 3),
        st.integers(0, 4), st.integers(1, 30), flag,
    ),
    st.tuples(st.just("heartbeat"), st.integers(0, 1), st.integers(1, 6)),
    # A uniform-start run of (key, length) on one port.
    st.tuples(
        st.just("batch"), st.integers(0, 1), st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)), min_size=2, max_size=3),
    ),
    st.tuples(st.just("retention")),
)


def differential_observation(join, probe):
    """The observable behaviour; state per join key, since the hash join
    iterates bucket by bucket and the nested-loops join in arrival order
    (within a key both keep arrival order)."""
    progress = join.progress_state()
    return (
        list(probe.trace),
        [
            as_tuples(sorted(join.state_of_port(p), key=lambda e: e.payload[0]))
            for p in (0, 1)
        ],
        join.state_value_count(),
        progress["watermarks"],
        as_tuples(progress["staged"]),
    )


@settings(max_examples=150, deadline=None)
@given(events=st.lists(differential_event, min_size=1, max_size=30))
def test_nested_loops_equality_join_equals_hash_join(events):
    joins = [NestedLoopsJoin(lambda l, r: l[0] == r[0]), equi_join(0, 0)]
    probes = [Probe(MIN_TIME) for _ in joins]
    for join, probe in zip(joins, probes):
        join.subscribe(probe, 0)
    t = 0
    serial = itertools.count()
    for kind, *args in events:
        if kind == "element":
            port, key, delta, length, element_flag = args
            t += delta
            e = element((key, next(serial)), t, t + length).with_flag(element_flag)
            for join in joins:
                join.process(e, port)
        elif kind == "heartbeat":
            port, delta = args
            t += delta
            for join in joins:
                join.process_heartbeat(t, port)
        elif kind == "batch":
            port, delta, specs = args
            t += delta
            run = [element((key, next(serial)), t, t + length) for key, length in specs]
            for join in joins:
                join.process_batch(Batch(run, watermark=t), port)
        else:
            for join in joins:
                join.set_retention(pt_retention)
        nested, hashed = (differential_observation(j, p) for j, p in zip(joins, probes))
        assert nested == hashed
    for join in joins:
        join.process_heartbeat(MAX_TIME, 0)
        join.process_heartbeat(MAX_TIME, 1)
    nested, hashed = (differential_observation(j, p) for j, p in zip(joins, probes))
    assert nested == hashed
    assert nested[1] == [[], []]


def test_retention_rule_delays_purging():
    """Under a retention rule both join kinds keep an element past its end
    and purge it when the rule says: here at ``start + 100``."""
    for join in (NestedLoopsJoin(lambda l, r: l[0] == r[0]), equi_join(0, 0)):
        join.set_retention(lambda e: e.start + 100)
        join.process(element((0, "a"), 0, 5), 0)
        for t in (50, 99):
            join.process_heartbeat(t, 0)
            join.process_heartbeat(t, 1)
            assert as_tuples(join.state_of_port(0)) == [((0, "a"), 0, 5, None)]
        join.process_heartbeat(100, 0)
        join.process_heartbeat(100, 1)
        assert join.state_of_port(0) == []
