"""Logical plans, expressions, and the logical-to-physical compiler."""

from .expressions import (
    And,
    Arithmetic,
    Comparison,
    Expression,
    Field,
    Literal,
    Not,
    Or,
    Schema,
    conjunction,
    conjuncts,
)
from .logical import (
    AggregateNode,
    AggregateSpec,
    DifferenceNode,
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    Query,
    SelectNode,
    Source,
    UnionNode,
)
from .dot import box_to_dot, plan_to_dot
from .kernels import clear_kernel_cache, kernel_cache_stats
from .physical import PhysicalBuilder

__all__ = [
    "AggregateNode",
    "AggregateSpec",
    "And",
    "Arithmetic",
    "Comparison",
    "DifferenceNode",
    "DistinctNode",
    "Expression",
    "Field",
    "JoinNode",
    "Literal",
    "LogicalPlan",
    "Not",
    "Or",
    "PhysicalBuilder",
    "box_to_dot",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "plan_to_dot",
    "ProjectNode",
    "Query",
    "Schema",
    "SelectNode",
    "Source",
    "UnionNode",
    "conjunction",
    "conjuncts",
]
