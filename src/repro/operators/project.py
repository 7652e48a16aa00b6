"""Projection / mapping: the stateless, duplicate-preserving pi operator."""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..temporal.batch import Batch
from ..temporal.element import Payload, StreamElement, as_payload
from . import base as _base
from .base import StatelessOperator


class Project(StatelessOperator):
    """Apply ``mapping`` to every payload, keeping the validity interval.

    The mapping must return a tuple (or a value coercible to a payload).
    Duplicate payloads produced by the mapping are preserved — duplicate
    elimination is a separate operator, matching the extended relational
    algebra's bag semantics.
    """

    def __init__(self, mapping: Callable[[Payload], Payload], name: str = "") -> None:
        super().__init__(name=name or "project")
        self.mapping = mapping

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "project")
        self._stage(element.with_payload(as_payload(self.mapping(element.payload))))

    def evaluate(self, elements: List[StreamElement]) -> List[StreamElement]:
        mapping = self.mapping
        return [e.with_payload(as_payload(mapping(e.payload))) for e in elements]

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Map a whole run with one comprehension and one meter charge
        (``len(batch)`` units — exactly what the element loop charges)."""
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
        self.meter.charge(len(elements), "project")
        self._emit_batch(batch.with_elements(self.evaluate(elements)))
        self._advance()
        if batch.watermark > watermarks[0]:
            self.process_heartbeat(batch.watermark, 0)


class ProjectFields(Project):
    """Project onto a fixed sequence of payload positions."""

    def __init__(self, indices: Sequence[int], name: str = "") -> None:
        index_tuple = tuple(indices)

        def pick(payload: Payload) -> Payload:
            return tuple(payload[i] for i in index_tuple)

        super().__init__(pick, name=name or f"project{index_tuple}")
        self.indices = index_tuple
