"""Snapshot-equivalence-preserving transformation rules.

Because every standard operator is snapshot-reducible, the classical
transformation rules of the (extended) relational algebra carry over to the
stream algebra unchanged (Section 2.1) — this is the semantic foundation
that lets the optimizer produce *equivalent* plans for GenMig to migrate
between.  Implemented rules:

* selection push-down / pull-up,
* duplicate-elimination push-down through joins (the Figure 2 rule:
  ``distinct(A ⋈ B)  →  distinct(A) ⋈ distinct(B)``) and its inverse,
* join reordering over maximal equi-join subtrees (left-deep orders),
  re-projecting to the original column order so the rewritten plan is
  equivalent *including schema*.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Sequence

from .. import plans
from ..plans.expressions import Comparison, Expression, Field, conjunction, conjuncts
from ..plans.logical import (
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    SelectNode,
    Source,
)


# --------------------------------------------------------------------- #
# Selection push-down
# --------------------------------------------------------------------- #


def push_down_selections(plan: LogicalPlan) -> LogicalPlan:
    """Push selection conjuncts as close to the sources as possible."""
    return _push_selects(plan, [])


def _push_selects(plan: LogicalPlan, carried: List[Expression]) -> LogicalPlan:
    if isinstance(plan, SelectNode):
        return _push_selects(plan.child, carried + list(conjuncts(plan.predicate)))
    if isinstance(plan, JoinNode):
        columns_left = set(plan.left.schema)
        columns_right = set(plan.right.schema)
        to_left: List[Expression] = []
        to_right: List[Expression] = []
        stay: List[Expression] = []
        for term in carried:
            used = term.columns()
            if used <= columns_left:
                to_left.append(term)
            elif used <= columns_right:
                to_right.append(term)
            else:
                stay.append(term)
        rewritten: LogicalPlan = JoinNode(
            _push_selects(plan.left, to_left),
            _push_selects(plan.right, to_right),
            plan.condition,
        )
        if stay:
            rewritten = SelectNode(rewritten, conjunction(stay))
        return rewritten
    rebuilt = _rebuild(plan, [_push_selects(child, []) for child in plan.children])
    if carried:
        return SelectNode(rebuilt, conjunction(carried))
    return rebuilt


def _rebuild(plan: LogicalPlan, children: Sequence[LogicalPlan]) -> LogicalPlan:
    """Clone a node with new children (sources are immutable leaves)."""
    if isinstance(plan, Source):
        return plan
    if isinstance(plan, SelectNode):
        return SelectNode(children[0], plan.predicate)
    if isinstance(plan, ProjectNode):
        return ProjectNode(children[0], plan.outputs)
    if isinstance(plan, DistinctNode):
        return DistinctNode(children[0])
    if isinstance(plan, JoinNode):
        return JoinNode(children[0], children[1], plan.condition)
    if isinstance(plan, plans.AggregateNode):
        return plans.AggregateNode(children[0], plan.aggregates, plan.group_by)
    if isinstance(plan, plans.UnionNode):
        return plans.UnionNode(children[0], children[1])
    if isinstance(plan, plans.DifferenceNode):
        return plans.DifferenceNode(children[0], children[1])
    raise TypeError(f"cannot rebuild {type(plan).__name__}")


# --------------------------------------------------------------------- #
# Duplicate-elimination push-down
# --------------------------------------------------------------------- #


def push_down_distinct(plan: LogicalPlan) -> LogicalPlan:
    """Apply ``distinct(l ⋈ r) → distinct(l) ⋈ distinct(r)`` recursively.

    Sound for joins because every output tuple is the concatenation of one
    left and one right tuple: the result is duplicate-free iff both inputs
    are [Slivinskas et al. 2000; Dayal et al. 1982].  This is the rewrite of
    the paper's Figure 2 example.
    """
    if isinstance(plan, DistinctNode) and isinstance(plan.child, JoinNode):
        join = plan.child
        return JoinNode(
            push_down_distinct(DistinctNode(join.left)),
            push_down_distinct(DistinctNode(join.right)),
            join.condition,
        )
    if isinstance(plan, DistinctNode) and isinstance(plan.child, DistinctNode):
        return push_down_distinct(plan.child)
    if isinstance(plan, DistinctNode) and isinstance(plan.child, (SelectNode, ProjectNode)):
        # Under an outer duplicate elimination, multiplicity changes below
        # are washed out, so any join underneath may deduplicate its inputs:
        # distinct(pi(l ⋈ r)) = distinct(pi(distinct(l) ⋈ distinct(r))).
        # The outer distinct stays because pi may map distinct tuples
        # together (and sigma preserves whatever pi produced).
        return DistinctNode(_dedup_join_inputs(plan.child))
    return _rebuild(plan, [push_down_distinct(child) for child in plan.children])


def _dedup_join_inputs(plan: LogicalPlan) -> LogicalPlan:
    """Deduplicate the inputs of every join under an outer distinct."""
    if isinstance(plan, JoinNode):
        return JoinNode(
            push_down_distinct(DistinctNode(plan.left)),
            push_down_distinct(DistinctNode(plan.right)),
            plan.condition,
        )
    if isinstance(plan, (SelectNode, ProjectNode)):
        return _rebuild(plan, [_dedup_join_inputs(plan.child)])
    return push_down_distinct(plan)


# --------------------------------------------------------------------- #
# Join reordering
# --------------------------------------------------------------------- #


class JoinGraph:
    """Leaves and equi-join predicates of a maximal join-only subtree."""

    def __init__(self, leaves: List[LogicalPlan], predicates: List[Expression]) -> None:
        self.leaves = leaves
        self.predicates = predicates

    @classmethod
    def extract(cls, plan: LogicalPlan) -> Optional["JoinGraph"]:
        """Extract the join graph if ``plan`` is a tree of joins."""
        if not isinstance(plan, JoinNode):
            return None
        leaves: List[LogicalPlan] = []
        predicates: List[Expression] = []

        def walk(node: LogicalPlan) -> None:
            if isinstance(node, JoinNode):
                walk(node.left)
                walk(node.right)
                if node.condition is not None:
                    predicates.extend(conjuncts(node.condition))
            else:
                leaves.append(node)

        walk(plan)
        return cls(leaves, predicates)

    def build(self, order: Sequence[int]) -> LogicalPlan:
        """Build a left-deep join tree over leaves in the given order.

        Predicates attach to the lowest join at which both sides' columns
        are available; a step without any applicable predicate becomes a
        cross product.  A final projection restores the original column
        order so the plan is equivalent to the source plan.
        """
        if sorted(order) != list(range(len(self.leaves))):
            raise ValueError(f"order {order} is not a permutation of the leaves")
        remaining = list(self.predicates)
        tree: LogicalPlan = self.leaves[order[0]]
        for index in order[1:]:
            right = self.leaves[index]
            available = set(tree.schema) | set(right.schema)
            applicable = [p for p in remaining if p.columns() <= available]
            remaining = [p for p in remaining if p not in applicable]
            condition = conjunction(applicable) if applicable else None
            tree = JoinNode(tree, right, condition)
        if remaining:
            tree = SelectNode(tree, conjunction(remaining))
        original = sum((leaf.schema for leaf in self.leaves), ())
        if tree.schema != original:
            tree = ProjectNode(tree, [(Field(name), name) for name in original])
        return tree


def join_orders(plan: LogicalPlan, limit: int = 120) -> List[LogicalPlan]:
    """Enumerate alternative left-deep join orders of a plan's join tree.

    Unary operators above the join tree (selection, projection, distinct,
    aggregation — e.g. the schema-restoring projection a previous reorder
    introduced) are peeled off, the join tree underneath is re-enumerated,
    and the wrappers are re-applied, so reordering stays available across
    successive re-optimizations.  Returns an empty list when the plan holds
    no join tree.  Enumeration is exhaustive up to ``limit`` permutations —
    fine for the handful of inputs continuous queries join in practice.
    """
    wrappers: List[LogicalPlan] = []
    inner = plan
    while not isinstance(inner, JoinNode) and len(inner.children) == 1:
        wrappers.append(inner)
        inner = inner.children[0]
    graph = JoinGraph.extract(inner)
    if graph is None:
        return []

    def rewrap(tree: LogicalPlan) -> LogicalPlan:
        for wrapper in reversed(wrappers):
            tree = _rebuild(wrapper, [tree])
        return tree

    alternatives: List[LogicalPlan] = []
    for count, order in enumerate(permutations(range(len(graph.leaves)))):
        if count >= limit:
            break
        alternatives.append(rewrap(graph.build(order)))
    return alternatives
