"""Query re-optimization: transformation rules, cost model, decision step."""

from .cost import CostModel, Estimate
from .optimizer import OptimizationDecision, ReOptimizer
from .rules import (
    JoinGraph,
    join_orders,
    push_down_distinct,
    push_down_selections,
)

__all__ = [
    "CostModel",
    "Estimate",
    "JoinGraph",
    "OptimizationDecision",
    "ReOptimizer",
    "join_orders",
    "push_down_distinct",
    "push_down_selections",
]
