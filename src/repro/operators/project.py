"""Projection / mapping: the stateless, duplicate-preserving pi operator."""

from __future__ import annotations

from typing import Callable, Sequence

from ..temporal.element import Payload, StreamElement, as_payload
from .base import StatelessOperator


class Project(StatelessOperator):
    """Apply ``mapping`` to every payload, keeping the validity interval.

    The mapping must return a tuple (or a value coercible to a payload).
    Duplicate payloads produced by the mapping are preserved — duplicate
    elimination is a separate operator, matching the extended relational
    algebra's bag semantics.
    """

    category = "project"

    def __init__(self, mapping: Callable[[Payload], Payload], name: str = "") -> None:
        super().__init__(name=name or "project")
        self.mapping = mapping

    def _apply(self, element: StreamElement) -> StreamElement:
        return element.with_payload(as_payload(self.mapping(element.payload)))


class ProjectFields(Project):
    """Project onto a fixed sequence of payload positions.

    No system caller; kept until its unit tests retire (ROADMAP, audit follow-
    up).
    """

    def __init__(self, indices: Sequence[int], name: str = "") -> None:
        index_tuple = tuple(indices)

        def pick(payload: Payload) -> Payload:
            return tuple(payload[i] for i in index_tuple)

        super().__init__(pick, name=name or f"project{index_tuple}")
        self.indices = index_tuple
