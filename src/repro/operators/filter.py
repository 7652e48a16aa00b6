"""Selection: the stateless filter sigma of the stream algebra.

Snapshot-reducible trivially: filtering payloads commutes with taking
snapshots, and validity intervals pass through unchanged.
"""

from __future__ import annotations

from typing import Callable, List

from ..temporal.batch import Batch
from ..temporal.element import Payload, StreamElement
from . import base as _base
from .base import StatelessOperator


class Select(StatelessOperator):
    """Emit exactly the elements whose payload satisfies ``predicate``.

    Args:
        predicate: a payload predicate; evaluated once per element.
        cost: cost units charged per predicate evaluation (default 1),
            letting benchmarks model expensive filters.
    """

    def __init__(
        self,
        predicate: Callable[[Payload], bool],
        cost: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(name=name or "select")
        self.predicate = predicate
        self.cost = cost

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(self.cost, "select")
        if self.predicate(element.payload):
            self._stage(element)

    def evaluate(self, elements: List[StreamElement]) -> List[StreamElement]:
        predicate = self.predicate
        return [e for e in elements if predicate(e.payload)]

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Filter a whole run with one comprehension and one meter charge.

        The charge aggregates exactly as the element loop would —
        ``len(batch) * cost`` units in one call, same totals per run —
        and survivors flow on as a single batch dispatch.
        """
        if _base.SANITIZER is not None:
            _base.SANITIZER.on_batch(self, batch, 0)
        watermarks = self._watermarks
        elements = batch.elements
        if elements[0].start < watermarks[0]:
            raise ValueError(
                f"{self.name}: out-of-order element on port 0: "
                f"{elements[0].start} < watermark {watermarks[0]}"
            )
        watermarks[0] = elements[-1].start
        self.meter.charge(len(elements) * self.cost, "select")
        survivors = self.evaluate(elements)
        if survivors:
            self._emit_batch(batch.with_elements(survivors))
        self._advance()
        if batch.watermark > watermarks[0]:
            self.process_heartbeat(batch.watermark, 0)
