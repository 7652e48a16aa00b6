"""Logical-to-physical plan compilation: build an executable Box.

The builder walks the logical tree bottom-up, instantiates one physical
operator per standard logical operator, wires subscriptions, and collects
the input taps.  Join implementations are chosen structurally: simple
equi-join conditions compile to symmetric hash joins, everything else to
symmetric nested-loops joins (the paper's experimental setup uses the
latter; ``join_cost`` models its expensive-predicate variant).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..engine.box import Box, InputPort
from ..operators.aggregate import Aggregate
from ..operators.base import Operator
from ..operators.difference import Difference
from ..operators.duplicate import DuplicateElimination
from ..operators.filter import Select
from ..operators.join import HashJoin, NestedLoopsJoin
from ..operators.project import Project
from ..operators.scalar import avg_of, count, max_of, min_of, sum_of
from ..operators.union import Union
from ..temporal.element import Payload
from .expressions import Schema
from .logical import (
    AggregateNode,
    AggregateSpec,
    DifferenceNode,
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    SelectNode,
    Source,
    UnionNode,
)


class PhysicalBuilder:
    """Compiles logical plans into boxes.

    Args:
        join_cost: cost units charged per join predicate evaluation,
            modelling cheap (1) or expensive predicates (Figure 6).
        select_cost: cost units per selection predicate evaluation.
        force_nested_loops: compile equi-joins to nested-loops joins too,
            the paper's experimental setup (4-way nested-loops join trees,
            Section 5); by default they become hash joins.
    """

    def __init__(
        self,
        join_cost: int = 1,
        select_cost: int = 1,
        force_nested_loops: bool = False,
    ) -> None:
        self.join_cost = join_cost
        self.select_cost = select_cost
        self.force_nested_loops = force_nested_loops

    def config(self) -> Dict[str, object]:
        """The constructor arguments as a plain dict.

        A checkpoint records it, and restore rebuilds an identical builder
        from it (``PhysicalBuilder(**config)``).
        """
        return {
            "join_cost": self.join_cost,
            "select_cost": self.select_cost,
            "force_nested_loops": self.force_nested_loops,
        }

    def build(self, plan: LogicalPlan, label: str = "") -> Box:
        """Compile ``plan`` into an executable :class:`Box`."""
        taps: Dict[str, List[InputPort]] = {}
        operators: List[Operator] = []
        root, pending = self._compile(plan, taps, operators)
        if root is None:
            # The plan is a bare source: materialise an identity operator so
            # the box has a root to attach sinks to.
            identity = Project(lambda row: row, name="identity")
            operators.append(identity)
            for source, port in pending:
                taps.setdefault(source, []).append((identity, port))
            root = identity
        return Box(taps=taps, root=root, operators=operators, label=label or plan.signature())

    # ------------------------------------------------------------------ #
    # Recursive compilation
    # ------------------------------------------------------------------ #

    def _compile(
        self,
        node: LogicalPlan,
        taps: Dict[str, List[InputPort]],
        operators: List[Operator],
    ) -> Tuple[Optional[Operator], List[Tuple[str, int]]]:
        """Compile one node.

        Returns ``(operator, pending_source_ports)``: when the node is a
        bare source, ``operator`` is ``None`` and the *parent* registers the
        tap; otherwise ``operator`` is the node's physical root.
        """
        if isinstance(node, Source):
            return None, [(node.name, 0)]

        if isinstance(node, SelectNode):
            predicate = node.predicate.compile(node.child.schema)
            op = Select(predicate, cost=self.select_cost, name=f"select[{node.predicate!r}]")
        elif isinstance(node, ProjectNode):
            op = Project(
                self._projection(node), name=f"project[{','.join(node.schema)}]"
            )
        elif isinstance(node, DistinctNode):
            op = DuplicateElimination(name="distinct")
        elif isinstance(node, JoinNode):
            op = self._join(node)
        elif isinstance(node, AggregateNode):
            op = self._aggregate(node)
        elif isinstance(node, UnionNode):
            op = Union(name="union")
        elif isinstance(node, DifferenceNode):
            op = Difference(name="difference")
        else:
            raise TypeError(f"cannot compile logical node {type(node).__name__}")

        operators.append(op)
        for port, child in enumerate(node.children):
            child_op, pending = self._compile(child, taps, operators)
            if child_op is None:
                for source, _ in pending:
                    taps.setdefault(source, []).append((op, port))
            else:
                child_op.subscribe(op, port)
        return op, []

    def _projection(self, node: ProjectNode) -> Callable[[Payload], Payload]:
        compiled = [expr.compile(node.child.schema) for expr, _ in node.outputs]
        return lambda row: tuple(fn(row) for fn in compiled)

    def _join(self, node: JoinNode) -> Operator:
        equi = node.equi_columns()
        if equi is not None and not self.force_nested_loops:
            left_column, right_column = equi
            join: Operator = HashJoin(
                node.left.schema.index(left_column),
                node.right.schema.index(right_column),
                predicate_cost=self.join_cost,
                name=f"hash-join[{left_column}={right_column}]",
            )
        elif node.condition is None:
            join = NestedLoopsJoin(
                lambda left, right: True,
                predicate_cost=self.join_cost,
                name="cross-join",
            )
        else:
            schema: Schema = node.schema
            predicate = node.condition.compile(schema)
            join = NestedLoopsJoin(
                lambda left, right: predicate(left + right),
                predicate_cost=self.join_cost,
                name=f"nl-join[{node.condition!r}]",
            )
        if node.condition is not None:
            # The key the cost model uses to look up observed selectivities;
            # the executor points the join's probe at the same catalog entry.
            join.statistics_key = repr(node.condition)
        return join

    def _aggregate(self, node: AggregateNode) -> Aggregate:
        schema = node.child.schema
        functions = []
        for spec in node.aggregates:
            index = schema.index(spec.column) if spec.column is not None else 0
            if spec.function == "count":
                functions.append(count())
            elif spec.function == "sum":
                functions.append(sum_of(index))
            elif spec.function == "avg":
                functions.append(avg_of(index))
            elif spec.function == "min":
                functions.append(min_of(index))
            elif spec.function == "max":
                functions.append(max_of(index))
        group_key = None
        if node.group_by:
            indices = tuple(schema.index(column) for column in node.group_by)
            group_key = lambda row: tuple(row[i] for i in indices)
        name = f"aggregate[{','.join(s.output_name() for s in node.aggregates)}]"
        return Aggregate(functions, group_key=group_key, name=name)
