"""Graphviz DOT export for logical plans.

Pure string generation — no graphviz dependency.  Render with any dot
tool, e.g. ``dot -Tsvg plan.dot -o plan.svg``.

Nodes are annotated with the plan verifier's classifications: every
non-source node carries a ``tooltip`` naming its migration traits
(snapshot-reducible / start-preserving / stateful-non-join), stateful
nodes are colored, and any subtree unsafe for the Parallel Track baseline
— a stateful non-join anywhere below — is outlined red up to the root, so
the Figure 2 shape is visible at a glance.
"""

from __future__ import annotations

from typing import List, Tuple

from .logical import (
    AggregateNode,
    DifferenceNode,
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)

#: Outline colors: red for PT-unsafe (stateful non-join in the subtree),
#: green for safe stateful operators (joins, the order-restoring union).
_UNSAFE_COLOR = "#c62828"
_STATEFUL_COLOR = "#2e7d32"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _shallow_label(node: LogicalPlan) -> str:
    """One-line label of a node without rendering its whole subtree."""
    if isinstance(node, Source):
        return node.name
    if isinstance(node, SelectNode):
        return f"select[{node.predicate!r}]"
    if isinstance(node, ProjectNode):
        return f"project[{', '.join(node.schema)}]"
    if isinstance(node, JoinNode):
        condition = repr(node.condition) if node.condition is not None else "true"
        return f"join[{condition}]"
    if isinstance(node, DistinctNode):
        return "distinct"
    if isinstance(node, AggregateNode):
        aggregates = ", ".join(spec.output_name() for spec in node.aggregates)
        group = f" by {list(node.group_by)}" if node.group_by else ""
        return f"aggregate[{aggregates}{group}]"
    if isinstance(node, UnionNode):
        return "union"
    if isinstance(node, DifferenceNode):
        return "difference"
    return type(node).__name__


def plan_to_dot(plan: LogicalPlan, name: str = "plan") -> str:
    """Render a logical plan tree as a DOT digraph (edges flow upward)."""
    from ..analysis.plan_verifier import classify_logical

    lines = [
        f'digraph "{_escape(name)}" {{',
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica", fontsize=11];',
    ]
    counter = {"next": 0}

    def visit(node: LogicalPlan) -> Tuple[str, bool]:
        identifier = f"n{counter['next']}"
        counter["next"] += 1
        classification = classify_logical(node)
        attrs = [f'label="{_escape(_shallow_label(node))}"']
        edges: List[str] = []
        pt_unsafe = not classification.pt_compatible
        for child in node.children:
            child_id, child_unsafe = visit(child)
            pt_unsafe = pt_unsafe or child_unsafe
            edges.append(f"  {child_id} -> {identifier};")
        if not isinstance(node, Source):
            attrs.append(f'tooltip="{_escape(classification.description)}"')
            if pt_unsafe:
                attrs.append(f'color="{_UNSAFE_COLOR}"')
            elif classification.stateful:
                attrs.append(f'color="{_STATEFUL_COLOR}"')
        lines.append(f"  {identifier} [{', '.join(attrs)}];")
        lines.extend(edges)
        return identifier, pt_unsafe

    visit(plan)
    lines.append("}")
    return "\n".join(lines)
