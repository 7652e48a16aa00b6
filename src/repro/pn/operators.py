"""Positive-negative physical operators (the STREAM/Nile style, Section 2.3).

A PN stream is ordered by timestamps; a positive element announces a
payload's validity, the matching negative its expiration.  Operators are
push-based like their interval counterparts, with a staging heap to keep
the merged output of positives and scheduled negatives ordered.

The PN model doubles stream rates relative to the interval model (every
validity costs two elements) — the drawback the paper points out — but it
is the native model of several engines, and Section 4.6 shows GenMig
transfers to it; see :mod:`repro.pn.genmig`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..temporal.element import Payload, PNElement, Sign, negative, positive
from ..temporal.time import MAX_TIME, MIN_TIME, Time


class PNOperator:
    """Base class of PN operators: ports, watermarks, ordered staging."""

    def __init__(self, arity: int = 1, name: str = "") -> None:
        if arity < 1:
            raise ValueError(f"operator arity must be >= 1, got {arity}")
        self.arity = arity
        self.name = name or type(self).__name__
        self._subscribers: List[Tuple["PNOperator", int]] = []
        self._sinks: List[object] = []
        self._watermarks: List[Time] = [MIN_TIME] * arity
        self._heap: List[Tuple[Time, int, PNElement]] = []
        self._sequence = itertools.count()
        self._emitted_watermark: Time = MIN_TIME

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def subscribe(self, downstream: "PNOperator", port: int = 0) -> None:
        """Route this operator's output into ``downstream``."""
        self._subscribers.append((downstream, port))

    def attach_sink(self, sink: object) -> None:
        """Attach a terminal consumer (``process``/``process_heartbeat``)."""
        self._sinks.append(sink)

    def detach_sink(self, sink: object) -> None:
        """Detach a terminal consumer."""
        self._sinks.remove(sink)

    # ------------------------------------------------------------------ #
    # Input protocol
    # ------------------------------------------------------------------ #

    def process(self, element: PNElement, port: int = 0) -> None:
        """Consume one PN element."""
        if element.timestamp < self._watermarks[port]:
            raise ValueError(
                f"{self.name}: out-of-order PN element on port {port}: "
                f"{element.timestamp} < {self._watermarks[port]}"
            )
        self._watermarks[port] = element.timestamp
        self._on_element(element, port)
        self._advance()

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Consume a progress promise for one port."""
        if t <= self._watermarks[port]:
            return
        self._watermarks[port] = t
        self._advance()

    @property
    def min_watermark(self) -> Time:
        return min(self._watermarks)

    # ------------------------------------------------------------------ #
    # Subclass hooks and output
    # ------------------------------------------------------------------ #

    def _on_element(self, element: PNElement, port: int) -> None:
        raise NotImplementedError

    def _stage(self, element: PNElement) -> None:
        heapq.heappush(self._heap, (element.timestamp, next(self._sequence), element))

    def _advance(self) -> None:
        watermark = self.min_watermark
        while self._heap and self._heap[0][0] <= watermark:
            self._emit(heapq.heappop(self._heap)[2])
        if watermark > self._emitted_watermark:
            self._emitted_watermark = watermark
            for downstream, port in self._subscribers:
                downstream.process_heartbeat(min(watermark, MAX_TIME), port)
            for sink in self._sinks:
                sink.process_heartbeat(min(watermark, MAX_TIME))

    def _emit(self, element: PNElement) -> None:
        for downstream, port in self._subscribers:
            downstream.process(element, port)
        for sink in self._sinks:
            sink.process(element)


class PNWindow(PNOperator):
    """Time-based sliding window: schedule the expiration of every element.

    For each incoming positive element with timestamp ``t``, forward it and
    schedule the matching negative at ``t + w + 1`` (window size + 1 time
    units later, Section 2.3).  Raw inputs carry positives only.
    """

    def __init__(self, size: Time, name: str = "") -> None:
        super().__init__(arity=1, name=name or f"pn-window[{size}]")
        if size < 0:
            raise ValueError(f"window size must be non-negative, got {size}")
        self.size = size

    def _on_element(self, element: PNElement, port: int) -> None:
        if element.is_negative:
            raise ValueError("a window's raw input must contain positives only")
        self._stage(element)
        self._stage(negative(element.payload, element.timestamp + self.size + 1))


class PNSelect(PNOperator):
    """Selection: both signs of a payload pass or are dropped together.

    Section 4.6's positive-negative twin; the PN example runs only a join and a
    distinct.
    """

    def __init__(self, predicate: Callable[[Payload], bool], name: str = "") -> None:
        super().__init__(arity=1, name=name or "pn-select")
        self.predicate = predicate

    def _on_element(self, element: PNElement, port: int) -> None:
        if self.predicate(element.payload):
            self._stage(element)


class PNProject(PNOperator):
    """Projection: map the payload, keep timestamp and sign.

    Section 4.6's positive-negative twin; the PN example runs only a join and a
    distinct.
    """

    def __init__(self, mapping: Callable[[Payload], Payload], name: str = "") -> None:
        super().__init__(arity=1, name=name or "pn-project")
        self.mapping = mapping

    def _on_element(self, element: PNElement, port: int) -> None:
        payload = self.mapping(element.payload)
        if not isinstance(payload, tuple):
            payload = (payload,)
        self._stage(PNElement(payload, element.timestamp, element.sign))


class PNJoin(PNOperator):
    """Symmetric PN join.

    A positive on one side joins every live partner and emits positive
    results; a negative retires its element and emits negative results for
    every pair it participated in whose partner is still live.  Liveness is
    only meaningful under *global* timestamp order, but the two input ports
    may progress with skew (one window releases its scheduled negatives
    before the other has caught up), so inputs are staged in a merge buffer
    and applied in timestamp order once both ports' watermarks have passed
    them — each pair is then born and dies exactly once.
    """

    def __init__(
        self,
        predicate: Callable[[Payload, Payload], bool],
        combiner: Optional[Callable[[Payload, Payload], Payload]] = None,
        name: str = "",
    ) -> None:
        super().__init__(arity=2, name=name or "pn-join")
        self.predicate = predicate
        self.combiner = combiner or (lambda left, right: left + right)
        self._live: List[Dict[Payload, int]] = [{}, {}]
        self._pending: List[Tuple[Time, int, int, PNElement]] = []
        self._pending_sequence = itertools.count()

    def _on_element(self, element: PNElement, port: int) -> None:
        heapq.heappush(
            self._pending,
            (element.timestamp, next(self._pending_sequence), port, element),
        )

    def _advance(self) -> None:
        watermark = self.min_watermark
        while self._pending and self._pending[0][0] <= watermark:
            _, _, port, element = heapq.heappop(self._pending)
            self._apply(element, port)
        super()._advance()

    def _apply(self, element: PNElement, port: int) -> None:
        payload = element.payload
        partners = self._live[1 - port]
        if element.is_positive:
            self._live[port][payload] = self._live[port].get(payload, 0) + 1
        else:
            count = self._live[port].get(payload, 0)
            if count <= 0:
                raise ValueError(f"{self.name}: negative for non-live payload {payload}")
            if count == 1:
                del self._live[port][payload]
            else:
                self._live[port][payload] = count - 1
        for partner, multiplicity in partners.items():
            if port == 0:
                left, right = payload, partner
            else:
                left, right = partner, payload
            if not self.predicate(left, right):
                continue
            combined = self.combiner(left, right)
            for _ in range(multiplicity):
                self._stage(PNElement(combined, element.timestamp, element.sign))


class PNDistinct(PNOperator):
    """Duplicate elimination: emit a payload's first positive and last negative."""

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=1, name=name or "pn-distinct")
        self._counts: Dict[Payload, int] = {}

    def _on_element(self, element: PNElement, port: int) -> None:
        payload = element.payload
        if element.is_positive:
            count = self._counts.get(payload, 0)
            if count == 0:
                self._stage(element)
            self._counts[payload] = count + 1
        else:
            count = self._counts.get(payload, 0)
            if count <= 0:
                raise ValueError(f"{self.name}: negative for non-live payload {payload}")
            if count == 1:
                del self._counts[payload]
                self._stage(element)
            else:
                self._counts[payload] = count - 1


class PNAggregate(PNOperator):
    """Grouped snapshot aggregation in the PN model.

    Maintains per group a running bag of live payloads; whenever the
    aggregate value of a group changes (a positive or negative arrives),
    the operator retires the previous value (negative) and announces the
    new one (positive) — the classic PN "update as a sign pair" pattern.
    A group's last value is retired without replacement when it empties.

    Like the PN join, inputs must be applied in global timestamp order, so
    a merge buffer drains up to the watermark (single input port, so the
    buffer only reorders same-call staging, but it keeps the operator
    uniform and safe under future multi-port extensions).

    Section 4.6's positive-negative twin; the PN example runs only a join and a
    distinct.
    """

    def __init__(
        self,
        functions,
        group_key: Callable[[Payload], Payload],
        name: str = "",
    ) -> None:
        super().__init__(arity=1, name=name or "pn-aggregate")
        if not functions:
            raise ValueError("at least one aggregate function is required")
        self.functions = tuple(functions)
        self.group_key = group_key
        self._groups: Dict[Payload, List[Payload]] = {}
        self._current: Dict[Payload, Payload] = {}

    def _on_element(self, element: PNElement, port: int) -> None:
        key = self.group_key(element.payload)
        if not isinstance(key, tuple):
            key = (key,)
        members = self._groups.setdefault(key, [])
        if element.is_positive:
            members.append(element.payload)
        else:
            try:
                members.remove(element.payload)
            except ValueError:
                raise ValueError(
                    f"{self.name}: negative for non-live payload {element.payload}"
                ) from None
        previous = self._current.get(key)
        if members:
            value = key + tuple(fn(members) for fn in self.functions)
        else:
            value = None
            del self._groups[key]
        if value == previous:
            return
        if previous is not None:
            self._stage(PNElement(previous, element.timestamp, Sign.NEGATIVE))
        if value is not None:
            self._stage(PNElement(value, element.timestamp, Sign.POSITIVE))
            self._current[key] = value
        else:
            del self._current[key]


class PNCollector:
    """Terminal sink collecting PN output."""

    def __init__(self) -> None:
        self.elements: List[PNElement] = []

    def process(self, element: PNElement, port: int = 0) -> None:
        self.elements.append(element)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Heartbeats carry no results."""


def run_pn_pipeline(
    inputs: Dict[str, List[PNElement]],
    taps: Dict[str, List[Tuple[PNOperator, int]]],
    root: PNOperator,
) -> List[PNElement]:
    """Drive named PN streams through a plan in global timestamp order."""
    collector = PNCollector()
    root.attach_sink(collector)
    merged: List[Tuple[Time, int, str, PNElement]] = []
    sequence = 0
    for name, elements in inputs.items():
        for element in elements:
            merged.append((element.timestamp, sequence, name, element))
            sequence += 1
    merged.sort(key=lambda item: (item[0], item[1]))
    for timestamp, _, name, element in merged:
        # Advance every input to the global clock *before* processing the
        # element, so all scheduled expirations below ``timestamp`` (e.g.
        # window-generated negatives) are applied first — the global
        # temporal processing order of the paper's experiments.
        for ports in taps.values():
            for operator, port in ports:
                operator.process_heartbeat(timestamp, port)
        for operator, port in taps[name]:
            operator.process(element, port)
    for ports in taps.values():
        for operator, port in ports:
            operator.process_heartbeat(MAX_TIME, port)
    root.detach_sink(collector)
    return collector.elements
