"""Snapshot union: bag union of two streams (``UNION ALL``).

Semantically stateless — every input element is an output element — but the
two inputs must be merged back into start-timestamp order, so the operator
stages output and releases it by watermark like any stateful operator.
"""

from __future__ import annotations

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from . import base
from .base import StatefulOperator


class Union(StatefulOperator):
    """Order-preserving merge of two snapshot streams."""

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=2, name=name or "union")

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Forward a run whole when each element would leave on its own advance.

        That holds when nothing is staged, the run does not start below
        its port's watermark, the other port has already promised the
        run's trailing watermark, and there is at most one receiver (batch
        dispatch groups per receiver, element dispatch interleaves).  Then
        every element's advance releases exactly that element and promises
        its start, so the run leaves as one batch followed by one advance;
        the promises dropped in between equal the start of the element
        just consumed — a no-op at every receiver, the argument
        :meth:`StatelessOperator.process_batch` makes.  Any other run takes
        the :class:`StatefulOperator` protocol.
        """
        if port:
            self._check_port(port)
        watermarks = self._watermarks
        if (
            self._heap
            or batch.first_start < watermarks[port]
            or batch.watermark > watermarks[1 - port]
            or len(self._subscribers) + len(self._sinks) > 1
        ):
            super().process_batch(batch, port)
            return
        if base.SANITIZER is not None:
            base.SANITIZER.on_batch(self, batch, port)
        last = watermarks[port] = batch.last_start
        self.meter.charge(len(batch), "union")
        self._emit_batch(batch)
        self._advance()
        if batch.watermark > last:
            self.process_heartbeat(batch.watermark, port)

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "union")
        self._stage(element)
