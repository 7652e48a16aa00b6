"""Aggregate functions for snapshot aggregation.

Each aggregate maps a non-empty bag of payloads to a scalar value.  The
snapshot aggregation operator evaluates these per constant-value segment of
application time, so implementations stay simple single-pass folds.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..temporal.element import Payload


class AggregateFunction:
    """An aggregate over a bag of payloads.

    Args:
        name: display name used in diagnostics and CQL output schemas.
        fold: callable mapping an iterable of payloads to a value.
    """

    __slots__ = ("name", "fold")

    def __init__(self, name: str, fold: Callable[[Iterable[Payload]], Any]) -> None:
        self.name = name
        self.fold = fold

    def __call__(self, payloads: Iterable[Payload]) -> Any:
        return self.fold(payloads)

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


def count() -> AggregateFunction:
    """``COUNT(*)``: the bag's cardinality."""
    return AggregateFunction("count", lambda payloads: sum(1 for _ in payloads))


def sum_of(field: int = 0) -> AggregateFunction:
    """``SUM(field)`` over the given payload position."""
    return AggregateFunction(f"sum[{field}]", lambda payloads: sum(p[field] for p in payloads))


def min_of(field: int = 0) -> AggregateFunction:
    """``MIN(field)`` over the given payload position."""
    return AggregateFunction(f"min[{field}]", lambda payloads: min(p[field] for p in payloads))


def max_of(field: int = 0) -> AggregateFunction:
    """``MAX(field)`` over the given payload position."""
    return AggregateFunction(f"max[{field}]", lambda payloads: max(p[field] for p in payloads))


def avg_of(field: int = 0) -> AggregateFunction:
    """``AVG(field)`` over the given payload position."""

    def fold(payloads: Iterable[Payload]) -> float:
        total = 0
        n = 0
        for p in payloads:
            total += p[field]
            n += 1
        return total / n

    return AggregateFunction(f"avg[{field}]", fold)
