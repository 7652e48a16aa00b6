"""Boxes, routers and the output gate: the migration-aware plan topology.

Following the paper's vocabulary, a *box* is the implementation of a plan —
the physical operator DAG actually executed.  The engine keeps the window
operators *outside* the boxes (windows are shared by the old and new plan,
and the optimizer's transformation rules operate on the standard operators
downstream of them), so a migratable box always consumes already-windowed
streams.  Splicing happens at two fixed points:

* a :class:`Router` per input, between the fixed upstream (window operator
  or intermediate stream) and the current box's entry ports;
* an :class:`OutputGate` between the current box's root and the sinks.

A migration strategy only ever rewires routers and the gate; it never needs
to know what is inside a box — the black-box property of GenMig.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..operators import base as _operator_base
from ..operators.base import Operator, StatelessOperator, deliver_to_sink
from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import MIN_TIME, Time

#: An operator input: ``(operator, port)``.
InputPort = Tuple[Operator, int]


@dataclass
class Box:
    """A physical plan over windowed inputs.

    Attributes:
        taps: per input name, the entry ports receiving that input.
        root: the operator producing the box's output stream.
        operators: every operator in the box (for accounting/teardown).
        label: diagnostic name ("old", "new", a plan signature, ...).
    """

    taps: Dict[str, List[InputPort]]
    root: Operator
    operators: List[Operator] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.operators:
            self.operators = self._discover_operators()

    def _discover_operators(self) -> List[Operator]:
        seen: List[Operator] = []
        frontier = [op for ports in self.taps.values() for op, _ in ports]
        while frontier:
            op = frontier.pop()
            if op in seen:
                continue
            seen.append(op)
            frontier.extend(downstream for downstream, _ in op.subscribers)
        if self.root not in seen:
            seen.append(self.root)
        return seen

    def state_value_count(self) -> int:
        """Payload values held across all operators — the memory metric."""
        return sum(op.state_value_count() for op in self.operators)

    def set_meter(self, meter: object) -> None:
        """Point every operator's cost accounting at ``meter``."""
        for op in self.operators:
            op.meter = meter

    def flush(self) -> None:
        """Flush every operator until nothing staged is left in the box.

        ``operators`` is in no topological order, so one pass may deliver
        into an operator it already flushed; ``len(operators)`` passes
        cover the longest chain.
        """
        for _ in range(len(self.operators)):
            for op in self.operators:
                op.flush()

    def has_staged_output(self) -> bool:
        """Whether any operator holds a result it has not released yet."""
        return any(op._heap for op in self.operators)

    def sever(self) -> None:
        """Disconnect the box's internal root output (teardown helper)."""
        self.root.clear_subscribers()

    def state_digest(self) -> tuple:
        """Canonical, hashable digest of every operator's state.

        Used by the model checker's schedule pruning
        (:meth:`~repro.engine.executor.QueryExecutor.fingerprint`): two
        executor states with equal digests hold identical operator state,
        so their continuations are schedule-for-schedule identical.
        """
        return tuple(operator_digest(op) for op in self.operators)


def _element_key(element: StreamElement) -> tuple:
    """Order-free canonical identity of one state element."""
    return (element.start, element.end, repr(element.payload), repr(element.flag))


def operator_digest(op: Operator) -> tuple:
    """Canonical, hashable digest of one operator's complete state.

    Combines the shared progress machinery (per-port watermarks, progress
    marks, staged output in release order) with the held state elements,
    port by port through :meth:`~repro.operators.base.Operator.state_of_port`.
    Sorting makes the digest independent of internal iteration order, so
    state reached through different (but effect-equal) event
    interleavings compares equal.
    """
    progress = op.progress_state()
    state = tuple(
        tuple(sorted(_element_key(e) for e in op.state_of_port(port)))
        for port in range(op.arity)
    )
    return (
        op.name,
        type(op).__name__,
        tuple(progress["watermarks"]),
        progress["emitted_watermark"],
        progress["purged_watermark"],
        tuple(_element_key(e) for e in progress["staged"]),
        state,
    )


class Router(StatelessOperator):
    """Stateless splice point: forwards its input to swappable subscribers."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name or "router")

    def _apply(self, element: StreamElement) -> StreamElement:
        return element

    def _map_batch(self, batch: Batch) -> Batch:
        return batch

    def retarget(self, targets: List[InputPort]) -> None:
        """Atomically replace the subscriber list."""
        self._subscribers = list(targets)


class OutputGate:
    """Terminal delivery point: forwards results to sinks and instruments.

    Unlike operators, the gate tolerates ordering violations — it counts
    them instead of failing.  This matters for the Parallel Track baseline,
    whose end-of-migration buffer flush emits results whose start timestamps
    interleave with already-delivered ones; the counter makes that anomaly
    measurable rather than fatal.
    """

    #: Set by Parallel Track around its buffer flush: the only deliveries
    #: a strict sanitizer (SAN009) accepts out of start order.
    expects_disorder = False

    def __init__(self, name: str = "gate") -> None:
        self.name = name
        self._sinks: List[object] = []
        self.delivered = 0
        self.order_violations = 0
        self._last_start: Time = MIN_TIME
        #: Called with the number of results each delivery hands on: 1
        #: from :meth:`process`, the run's length from :meth:`process_batch`.
        self.on_delivery: Optional[Callable[[int], None]] = None

    def add_sink(self, sink: object) -> None:
        """Attach a sink (``process``/``process_heartbeat`` duck type)."""
        self._sinks.append(sink)

    def process(self, element: StreamElement, port: int = 0) -> None:
        """Deliver one result to every sink."""
        violated = element.start < self._last_start
        if _operator_base.SANITIZER is not None:
            _operator_base.SANITIZER.on_gate(self, element, violated)
        if violated:
            self.order_violations += 1
        else:
            self._last_start = element.start
        self.delivered += 1
        if self.on_delivery is not None:
            self.on_delivery(1)
        for sink in self._sinks:
            sink.process(element)

    def process_batch(self, batch: Batch) -> None:
        """Deliver a run of results with one order check.

        A batch is start-ordered, so a run starting at or after the last
        delivered start violates nothing: a sanitizer checks it once
        (``on_batch``; no SAN009 can occur in it), it is counted in one
        step, ``on_delivery`` is called once with the run's length, and
        every sink gets the run whole through its ``process_batch`` when
        it has one.  For a run starting below the last delivered start,
        each result goes through :meth:`process`, so ``order_violations``
        and SAN009 stay exact.
        """
        if batch.first_start < self._last_start:
            process = self.process
            for element in batch.elements:
                process(element)
            return
        if _operator_base.SANITIZER is not None:
            _operator_base.SANITIZER.on_batch(self, batch, 0)
        self._last_start = batch.last_start
        self.delivered += len(batch)
        if self.on_delivery is not None:
            self.on_delivery(len(batch))
        for sink in self._sinks:
            deliver_to_sink(sink, batch)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Forward progress information to every sink."""
        for sink in self._sinks:
            sink.process_heartbeat(t)

    def progress_state(self) -> dict:
        """Capture delivery counters for a checkpoint."""
        return {
            "last_start": self._last_start,
            "delivered": self.delivered,
            "order_violations": self.order_violations,
        }

    def restore_progress(self, progress: dict) -> None:
        """Re-install counters captured by :meth:`progress_state`."""
        self._last_start = progress["last_start"]
        self.delivered = progress["delivered"]
        self.order_violations = progress["order_violations"]
