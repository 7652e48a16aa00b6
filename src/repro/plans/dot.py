"""Graphviz DOT export for logical plans and physical boxes.

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

from typing import Dict, List, Tuple

from ..engine.box import Box
from ..operators.base import Operator
from .logical import LogicalPlan, Source

#: Outline colors: red for PT-unsafe (stateful non-join in the subtree),
#: green for safe stateful operators (joins, the order-restoring union).
_UNSAFE_COLOR = "#c62828"
_STATEFUL_COLOR = "#2e7d32"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(plan: LogicalPlan, name: str = "plan") -> str:
    """Render a logical plan tree as a DOT digraph (edges flow upward)."""
    from ..analysis.plan_verifier import classify_logical
    from ..cql.unparse import _shallow_label

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


def box_to_dot(box: Box, name: str = "") -> str:
    """Render a physical box: operators, subscriptions, taps and root."""
    from ..analysis.plan_verifier import classify_operator

    lines = [
        f'digraph "{_escape(name or box.label or "box")}" {{',
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica", fontsize=11];',
    ]
    ids: Dict[int, str] = {}
    for index, operator in enumerate(box.operators):
        identifier = ids[id(operator)] = f"op{index}"
        classification, _ = classify_operator(operator)
        root_style = ' style="bold"' if operator is box.root else ""
        attrs = [f'tooltip="{_escape(classification.description)}"']
        if not classification.pt_compatible:
            attrs.append(f'color="{_UNSAFE_COLOR}"')
        elif classification.stateful:
            attrs.append(f'color="{_STATEFUL_COLOR}"')
        annotations = "".join(f", {attr}" for attr in attrs)
        lines.append(
            f'  {identifier} [label="{_escape(operator.name)}"'
            f"{root_style}{annotations}];"
        )
    for source, ports in sorted(box.taps.items()):
        source_id = f"src_{source}"
        lines.append(
            f'  {source_id} [label="{_escape(source)}", shape=ellipse];'
        )
        for operator, port in ports:
            lines.append(
                f'  {source_id} -> {ids[id(operator)]} '
                f'[label="port {port}"];'
            )
    for operator in box.operators:
        for downstream, port in operator.subscribers:
            if id(downstream) in ids:
                lines.append(
                    f"  {ids[id(operator)]} -> "
                    f'{ids[id(downstream)]} [label="port {port}"];'
                )
    lines.append("}")
    return "\n".join(lines)
