"""The migration case: one format for the model checker and the harness.

A *case* is a plain JSON-able dict that pins one migration:

* ``family`` / ``rewrite`` — a logical plan and one of its rewrites
  (:func:`rewrites`): EXP-6's rule families (join orders, selection and
  duplicate-elimination push-down and pull-up, projection placement, union
  commutativity, aggregation over a reordered join), Figure 2's distinct
  pair, a selection through a difference, and a selection between two
  joins;
* ``old_build`` / ``new_build`` — a key of :data:`BUILDERS`;
* ``strategy`` — a key of :data:`STRATEGIES`, or ``"none"`` for a
  harness run without a migration (the model checker needs a strategy);
* ``window`` — every source's window size;
* ``feeds`` — per source, ``[value, time delta]`` pairs (:func:`streams_of`);
* run settings — ``scheduler``, ``batch_size``, ``batch_during_migration``,
  ``migrate_at`` and ``and_back`` (a second migration back to the old plan
  the moment the first completes) — which one harness run reads and the
  model checker, which explores every schedule, ignores;
* optionally ``name``, ``description`` and ``expect_violation`` — what a
  model-checker preset says about itself.

The model checker (:mod:`repro.analysis.modelcheck`) explores a case under
every schedule; the test suite's migration harness runs one under a
scheduler, a batch size and a trigger.  Both read the plans, builds,
strategies and streams from here, so a preset replays in the harness and a
harness case explores in the model checker.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Tuple

from ..core import (
    FluidMigration,
    GenMig,
    ParallelTrack,
    ReferencePointGenMig,
    ShortenedGenMig,
)
from ..optimizer import join_orders, push_down_distinct, push_down_selections
from ..plans import (
    AggregateNode,
    AggregateSpec,
    Comparison,
    DifferenceNode,
    DistinctNode,
    Field,
    JoinNode,
    Literal,
    PhysicalBuilder,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)
from ..temporal import CHRONON, StreamElement, element
from .plan_verifier import figure2_plans

A, B, C = Source("A", ["x"]), Source("B", ["y"]), Source("C", ["z"])


def _both_ways(old, new):
    return [(old, new), (new, old)]


@functools.lru_cache(maxsize=None)
def rewrites() -> Dict[str, List[Tuple[object, object]]]:
    """Per plan family, its ``(old, new)`` logical plan pairs."""
    ab = Comparison("=", Field("A.x"), Field("B.y"))
    bc = Comparison("=", Field("B.y"), Field("C.z"))
    three = JoinNode(JoinNode(A, B, ab), C, bc)
    selected = SelectNode(three, Comparison("<", Field("A.x"), Literal(4)))
    distinct = DistinctNode(three)
    combined = DistinctNode(SelectNode(three, Comparison("<", Field("A.x"), Literal(5))))
    pushed_projection = ProjectNode(
        JoinNode(ProjectNode(A, [(Field("A.x"), "A.x")]), B, ab), [(Field("A.x"), "x")]
    )
    count_by_x = ([AggregateSpec("count")], ["A.x"])
    below_a = Comparison("<=", Field("A.x"), Literal(3))
    below_b = Comparison("<=", Field("B.y"), Literal(3))
    return {
        "join-order": [(three, alternative) for alternative in join_orders(three)],
        "selection": _both_ways(selected, push_down_selections(selected)),
        "distinct": _both_ways(distinct, push_down_distinct(distinct)),
        "combined": [(combined, push_down_distinct(push_down_selections(combined)))],
        "projection": [(ProjectNode(JoinNode(A, B, ab), [(Field("A.x"), "x")]), pushed_projection)],
        "union": [(UnionNode(A, B), ProjectNode(UnionNode(B, A), [(Field("B.y"), "A.x")]))],
        "aggregate-join": [
            (AggregateNode(three, *count_by_x), AggregateNode(join_orders(three)[3], *count_by_x))
        ],
        "figure2": _both_ways(*figure2_plans()),
        "difference": _both_ways(
            SelectNode(DifferenceNode(A, B), below_a),
            DifferenceNode(SelectNode(A, below_a), SelectNode(B, below_b)),
        ),
        # A selection between the joins: a stateless hop inside a fluid
        # handover, on both sides of the reordering.
        "join-select": _both_ways(
            JoinNode(SelectNode(JoinNode(A, B, ab), below_a), C, bc),
            JoinNode(A, SelectNode(JoinNode(B, C, bc), below_b), ab),
        ),
    }


BUILDERS = {
    "hash": PhysicalBuilder,
    "nested-loops": lambda: PhysicalBuilder(force_nested_loops=True),
}

#: Strategy name → a factory of fresh instances.  ``parallel-track-forced``
#: runs Parallel Track on plans it refuses (Section 3's counter-example),
#: ``genmig-rp-forced`` the reference point on plans it refuses (RP001).
STRATEGIES: Dict[str, Callable[[], object]] = {
    "genmig": GenMig,
    "genmig-short": ShortenedGenMig,
    "genmig-rp": ReferencePointGenMig,
    "genmig-rp-forced": lambda: ReferencePointGenMig(force=True),
    "parallel-track": ParallelTrack,
    "parallel-track-forced": lambda: ParallelTrack(force=True),
    "fluid-1": lambda: FluidMigration(ranges=1),
    "fluid-2": lambda: FluidMigration(ranges=2),
    "fluid-8": lambda: FluidMigration(ranges=8),
}

#: Strategies exempt from the start-order check: Parallel Track's
#: end-of-migration burst interleaves by design (Figure 4).
UNORDERED = frozenset({"parallel-track", "parallel-track-forced"})


def plans_of(case: dict) -> Tuple[object, object]:
    return rewrites()[case["family"]][case["rewrite"]]


def boxes_of(case: dict):
    """Fresh old and new boxes of ``case``."""
    old_plan, new_plan = plans_of(case)
    return (
        BUILDERS[case["old_build"]]().build(old_plan),
        BUILDERS[case["new_build"]]().build(new_plan),
    )


def streams_of(case: dict, windowed: bool = False) -> Dict[str, List[StreamElement]]:
    """Each source's elements, in feed order.

    A feed's time deltas accumulate from 0; ``value`` at ``t`` becomes
    ``((value,), [t, t+1))`` by the input conversion of Section 2.2, or
    with ``windowed`` ``((value,), [t, t+1+window))``, the windowed input
    the relational oracle evaluates over.
    """
    extent = CHRONON + (case["window"] if windowed else 0)
    streams = {}
    for name, feed in case["feeds"].items():
        t, elements = 0, []
        for value, delta in feed:
            t += delta
            elements.append(element(value, t, t + extent))
        streams[name] = elements
    return streams
