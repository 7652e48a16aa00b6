"""Logical query plans: the optimizer's and the CQL front end's currency.

A logical plan is a tree of standard (snapshot-reducible) operators over
named, windowed sources.  Window sizes live *with the sources*, outside the
tree, because the transformation rules of the relational algebra operate on
the standard operators only and every equivalent plan of a query shares the
same window placement (Section 2.2, "Query Plans"); this is also exactly
the boundary at which GenMig splices its split operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..temporal.time import Time
from .expressions import Expression, Field, Schema


class LogicalPlan:
    """Base class of logical plan nodes."""

    @property
    def schema(self) -> Schema:
        """The ordered output column names of this node."""
        raise NotImplementedError

    @property
    def children(self) -> Tuple["LogicalPlan", ...]:
        """The input plans of this node."""
        raise NotImplementedError

    def sources(self) -> Tuple[str, ...]:
        """Names of all sources below this node, left to right."""
        result: Tuple[str, ...] = ()
        for child in self.children:
            result += child.sources()
        return result

    def signature(self) -> str:
        """A stable structural signature, used for plan comparison/logging."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalPlan) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return self.signature()

    def pretty(self, indent: int = 0) -> str:
        """Multi-line tree rendering for logs and docs."""
        head = "  " * indent + self._label()
        lines = [head]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return self.signature()


class Source(LogicalPlan):
    """A leaf: one named, windowed input stream."""

    def __init__(self, name: str, columns: Sequence[str], qualify: bool = True) -> None:
        self.name = name
        if qualify:
            self._schema = tuple(f"{name}.{column}" for column in columns)
        else:
            self._schema = tuple(columns)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return ()

    def sources(self) -> Tuple[str, ...]:
        return (self.name,)

    def signature(self) -> str:
        return self.name

    def _label(self) -> str:
        return f"{self.name}{list(self._schema)}"


class SelectNode(LogicalPlan):
    """Selection sigma."""

    def __init__(self, child: LogicalPlan, predicate: Expression) -> None:
        missing = predicate.columns() - set(child.schema)
        if missing:
            raise ValueError(f"predicate references unknown columns {sorted(missing)}")
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def signature(self) -> str:
        return f"select[{self.predicate!r}]({self.child.signature()})"


class ProjectNode(LogicalPlan):
    """Projection pi: computed columns with output names."""

    def __init__(
        self, child: LogicalPlan, outputs: Sequence[Tuple[Expression, str]]
    ) -> None:
        if not outputs:
            raise ValueError("projection requires at least one output column")
        for expression, _ in outputs:
            missing = expression.columns() - set(child.schema)
            if missing:
                raise ValueError(f"projection references unknown columns {sorted(missing)}")
        self.child = child
        self.outputs = tuple(outputs)

    @property
    def schema(self) -> Schema:
        return tuple(name for _, name in self.outputs)

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def signature(self) -> str:
        inner = ", ".join(f"{expr!r} AS {name}" for expr, name in self.outputs)
        return f"project[{inner}]({self.child.signature()})"


class JoinNode(LogicalPlan):
    """Theta join; output schema is the concatenation of the inputs'.

    ``condition=None`` denotes a cross product.  Equi-join conditions are
    detected structurally so the physical builder can choose a hash join.
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        condition: Optional[Expression] = None,
    ) -> None:
        overlap = set(left.schema) & set(right.schema)
        if overlap:
            raise ValueError(f"join inputs share column names {sorted(overlap)}")
        if condition is not None:
            missing = condition.columns() - (set(left.schema) | set(right.schema))
            if missing:
                raise ValueError(f"join condition references unknown columns {sorted(missing)}")
        self.left = left
        self.right = right
        self.condition = condition

    @property
    def schema(self) -> Schema:
        return self.left.schema + self.right.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def signature(self) -> str:
        cond = repr(self.condition) if self.condition is not None else "true"
        return f"join[{cond}]({self.left.signature()}, {self.right.signature()})"

    def equi_columns(self) -> Optional[Tuple[str, str]]:
        """Return ``(left_column, right_column)`` for a simple equi-join."""
        condition = self.condition
        from .expressions import Comparison

        if not isinstance(condition, Comparison) or not condition.is_equi:
            return None
        a, b = condition.left.name, condition.right.name
        if a in self.left.schema and b in self.right.schema:
            return a, b
        if b in self.left.schema and a in self.right.schema:
            return b, a
        return None


class DistinctNode(LogicalPlan):
    """Duplicate elimination delta."""

    def __init__(self, child: LogicalPlan) -> None:
        self.child = child

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def signature(self) -> str:
        return f"distinct({self.child.signature()})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: function name + input column (None = ``*``)."""

    function: str
    column: Optional[str] = None

    def output_name(self) -> str:
        inner = self.column if self.column is not None else "*"
        return f"{self.function}({inner})"


class AggregateNode(LogicalPlan):
    """Snapshot aggregation, optionally grouped."""

    _FUNCTIONS = ("count", "sum", "avg", "min", "max")

    def __init__(
        self,
        child: LogicalPlan,
        aggregates: Sequence[AggregateSpec],
        group_by: Sequence[str] = (),
    ) -> None:
        if not aggregates:
            raise ValueError("aggregation requires at least one aggregate")
        for spec in aggregates:
            if spec.function not in self._FUNCTIONS:
                raise ValueError(f"unknown aggregate function {spec.function!r}")
            if spec.column is not None and spec.column not in child.schema:
                raise ValueError(f"aggregate references unknown column {spec.column!r}")
            if spec.column is None and spec.function != "count":
                raise ValueError(f"{spec.function}(*) is not defined")
        unknown = set(group_by) - set(child.schema)
        if unknown:
            raise ValueError(f"GROUP BY references unknown columns {sorted(unknown)}")
        self.child = child
        self.aggregates = tuple(aggregates)
        self.group_by = tuple(group_by)

    @property
    def schema(self) -> Schema:
        return self.group_by + tuple(spec.output_name() for spec in self.aggregates)

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def signature(self) -> str:
        aggs = ", ".join(spec.output_name() for spec in self.aggregates)
        group = f" by {list(self.group_by)}" if self.group_by else ""
        return f"aggregate[{aggs}{group}]({self.child.signature()})"


class UnionNode(LogicalPlan):
    """Snapshot bag union (``UNION ALL``); inputs must be union-compatible.

    CQL has no UNION; the migration cases' union family builds this node.
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan) -> None:
        if len(left.schema) != len(right.schema):
            raise ValueError(
                f"union inputs have different arity: {left.schema} vs {right.schema}"
            )
        self.left = left
        self.right = right

    @property
    def schema(self) -> Schema:
        return self.left.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def signature(self) -> str:
        return f"union({self.left.signature()}, {self.right.signature()})"


class DifferenceNode(LogicalPlan):
    """Snapshot bag difference; inputs must be union-compatible.

    CQL has no EXCEPT; the migration cases' difference family builds this node.
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan) -> None:
        if len(left.schema) != len(right.schema):
            raise ValueError(
                f"difference inputs have different arity: {left.schema} vs {right.schema}"
            )
        self.left = left
        self.right = right

    @property
    def schema(self) -> Schema:
        return self.left.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def signature(self) -> str:
        return f"difference({self.left.signature()}, {self.right.signature()})"


@dataclass
class Query:
    """A complete continuous query: a logical plan plus window metadata."""

    plan: LogicalPlan
    windows: Dict[str, Time] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(self.plan.sources()) - set(self.windows)
        if missing:
            raise ValueError(f"no window declared for sources {sorted(missing)}")

    @property
    def global_window(self) -> Time:
        """The widest window.

        No system caller; kept until its unit tests retire (ROADMAP, audit follow-up).
        """
        return max(self.windows.values())
