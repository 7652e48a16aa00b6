"""Selection: the stateless filter sigma of the stream algebra.

Snapshot-reducible trivially: filtering payloads commutes with taking
snapshots, and validity intervals pass through unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..temporal.element import Payload, StreamElement
from .base import StatelessOperator


class Select(StatelessOperator):
    """Emit exactly the elements whose payload satisfies ``predicate``.

    Args:
        predicate: a payload predicate; evaluated once per element.
        cost: cost units charged per predicate evaluation (default 1),
            letting benchmarks model expensive filters.
    """

    category = "select"

    def __init__(
        self,
        predicate: Callable[[Payload], bool],
        cost: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(name=name or "select")
        self.predicate = predicate
        self.cost = cost

    def _apply(self, element: StreamElement) -> Optional[StreamElement]:
        return element if self.predicate(element.payload) else None
