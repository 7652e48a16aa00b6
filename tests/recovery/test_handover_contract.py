"""The state hand-over contract: ``state_of_port`` out, ``absorb_state`` in.

Checkpoints, Moving States and fluid migration move operator state
through one drain hook and one absorb hook.  For every
stateful operator shape the builder emits, a checkpoint taken at a random
cut of a seeded two-source feed must be a fixed point of the round trip —
checkpoint → restore into a fresh executor → checkpoint again yields
equal progress and equal ports, element for element and in order — and
replaying the feed's tail into the restored executor must reproduce the
uninterrupted run's output and ``meter.total`` exactly.

An order leak in a drain (a payload dict iterated in first-touch order,
say) shows up here as an unstable second checkpoint, without any need to
read the operator's code.
"""

import random

import pytest

from repro.engine import QueryExecutor
from repro.plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    Field,
    JoinNode,
    PhysicalBuilder,
    Source,
)
from repro.plans.logical import DifferenceNode, DistinctNode, Query, UnionNode
from repro.streams import CollectorSink
from repro.streams.stream import PhysicalStream
from repro.temporal import element

A = Source("A", ["k", "v"])
B = Source("B", ["k", "v"])
WINDOWS = {"A": 6, "B": 6}
SEEDS = 150


def equi():
    return JoinNode(A, B, Comparison("=", Field("A.k"), Field("B.k")))


#: shape name -> (plan factory, sources the plan reads)
SHAPES = {
    "difference": (lambda: DifferenceNode(A, B), "AB"),
    "distinct": (lambda: DistinctNode(A), "A"),
    "union-distinct": (lambda: DistinctNode(UnionNode(A, B)), "AB"),
    "grouped-aggregate": (
        lambda: AggregateNode(
            A, [AggregateSpec("sum", "A.v"), AggregateSpec("count")], group_by=["A.k"]
        ),
        "A",
    ),
    "hash-join": (equi, "AB"),
    "nl-join": (
        lambda: JoinNode(A, B, Comparison("<", Field("A.k"), Field("B.k"))),
        "AB",
    ),
    "aggregate-over-join": (
        lambda: AggregateNode(equi(), [AggregateSpec("count")], group_by=["A.k"]),
        "AB",
    ),
}


def make_executor(query):
    executor = QueryExecutor(
        {name: PhysicalStream(name=name) for name in query.windows},
        dict(query.windows),
        PhysicalBuilder().build(query.plan),
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    return executor, sink


def seeded_feed(seed, sources, length=40):
    """Start-ordered elements over a small payload domain, so distinct,
    difference and the joins see repeated payloads and keys."""
    rng = random.Random(seed)
    t, feed = 0, []
    for _ in range(length):
        t += rng.choice((0, 0, 1, 2))
        payload = (rng.randrange(4), rng.randrange(2))
        feed.append((rng.choice(sources), element(payload, t, t + rng.randint(1, 4))))
    return feed


def collected(sink):
    return [(e.payload, e.start, e.end, e.flag) for e in sink.elements]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_checkpoint_is_a_fixed_point_and_replay_matches(shape):
    factory, sources = SHAPES[shape]
    query = Query(factory(), {name: WINDOWS[name] for name in sources})
    for seed in range(SEEDS):
        feed = seeded_feed(seed, sources)
        cut = random.Random(-seed - 1).randrange(1, len(feed))

        reference, reference_sink = make_executor(query)
        for source, item in feed:
            reference.push(source, item)
        reference.finish()

        first, first_sink = make_executor(query)
        for source, item in feed[:cut]:
            first.push(source, item)
        state = first.checkpoint_state()

        restored, restored_sink = make_executor(query)
        restored.restore_checkpoint(state)
        again = restored.checkpoint_state()
        # Every operator's progress and ports, in order, plus the gate,
        # meter and clock.
        assert again == state, (shape, seed, cut)

        for source, item in feed[cut:]:
            restored.push(source, item)
        restored.finish()
        assert collected(first_sink) + collected(restored_sink) == collected(
            reference_sink
        ), (shape, seed, cut)
        assert restored.meter.total == reference.meter.total, (shape, seed, cut)
