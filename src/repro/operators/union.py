"""Snapshot union: bag union of two streams (``UNION ALL``).

Semantically stateless — every input element is an output element — but the
two inputs must be merged back into start-timestamp order, so the operator
stages output and releases it by watermark like any stateful operator.
"""

from __future__ import annotations

from typing import List

from ..temporal.element import StreamElement
from .base import StatefulOperator


class Union(StatefulOperator):
    """Order-preserving merge of two snapshot streams."""

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=2, name=name or "union")

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "union")
        self._stage(element)

    def state_of_port(self, port: int) -> List[StreamElement]:
        """Union holds no per-port state; the staged merge heap is the
        only memory, and that travels via ``progress_state``."""
        self._check_port(port)
        return []

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Accept (only) an empty seed, for drain/absorb symmetry."""
        self._check_port(port)
        if elements:
            raise ValueError(f"{self.name} holds no per-port state to seed")
