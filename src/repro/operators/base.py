"""Physical operator framework: push-based, watermark-driven, accountable.

Operators form a DAG.  Each operator receives elements and heartbeats on
numbered input ports, updates per-port *watermarks* (the latest start
timestamp seen, Section 2.2 "Temporal Expiration"), and pushes results to
its subscribers.  Three concerns are centralised here:

* **Temporal expiration** — a state element ``(e, [t_S, t_E))`` is expired
  once ``t_E <= min(watermarks)``: no future input interval can overlap it.
* **Output ordering** — stateful operators may derive results whose start
  timestamps interleave under application-time skew; they stage results in
  a heap and release them once the watermark guarantees no earlier result
  can still appear, preserving the physical-stream ordering property.
* **Accounting** — every operator reports the number of payload values held
  in its state (the Figure 5 memory metric) and charges CPU cost units to a
  meter (the Figure 6 system-load metric).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import MAX_TIME, MIN_TIME, Time


class CostMeter:
    """Accumulates abstract CPU cost units, optionally per category.

    The paper's saturated-mode experiment (Figure 6) measures wall-clock
    time on dedicated hardware; we substitute deterministic cost units —
    one unit per elementary operation, a configurable amount per join
    predicate evaluation — so that the *relative* system load of migration
    strategies is measured reproducibly (see DESIGN.md, substitutions).
    """

    __slots__ = ("total", "by_category")

    def __init__(self) -> None:
        self.total: int = 0
        self.by_category: dict = {}

    def charge(self, units: int, category: str = "misc") -> None:
        """Add ``units`` of work attributed to ``category``."""
        self.total += units
        self.by_category[category] = self.by_category.get(category, 0) + units

    def reset(self) -> None:
        """Zero all counters."""
        self.total = 0
        self.by_category.clear()


class _NullMeter:
    """Cost sink used when no metering is requested (zero overhead path)."""

    __slots__ = ()

    def charge(self, units: int, category: str = "misc") -> None:
        """Discard the charge."""


NULL_METER = _NullMeter()

#: The active stream-invariant sanitizer, or ``None`` (the default).
#: Installed by :mod:`repro.analysis.sanitizer` — the analysis layer sets
#: this module global so the engine need not import it; when unset, every
#: hook below — and every operator's purge self-check — is a single
#: ``is None`` test.
SANITIZER = None


def deliver_to_sink(sink: Any, batch: Batch) -> None:
    """Hand a run to a sink: whole when it exposes ``process_batch``,
    otherwise one element at a time through its ``process``."""
    handler = getattr(sink, "process_batch", None)
    if handler is not None:
        handler(batch)
    else:
        process = sink.process
        for element in batch.elements:
            process(element)


class Operator:
    """Base class of all physical operators.

    Subclasses implement :meth:`_on_element` (and optionally
    :meth:`_on_watermark` / :meth:`state_of_port`) and call :meth:`_stage`
    or :meth:`_emit` to produce output.

    Args:
        arity: number of input ports.
        name: diagnostic name.
        ordered_output: when ``True`` (stateful operators), results are
            staged in a heap and released by watermark; when ``False``
            (stateless operators), results are forwarded immediately.
    """

    def __init__(self, arity: int = 1, name: str = "", ordered_output: bool = False) -> None:
        if arity < 1:
            raise ValueError(f"operator arity must be >= 1, got {arity}")
        self.arity = arity
        self.name = name or type(self).__name__
        self.meter = NULL_METER
        self._subscribers: List[Tuple["Operator", int]] = []
        self._sinks: List[object] = []
        self._watermarks: List[Time] = [MIN_TIME] * arity
        self._ordered_output = ordered_output
        self._heap: List[Tuple[Time, object, int, StreamElement]] = []
        self._sequence = itertools.count()
        self._emitted_watermark: Time = MIN_TIME
        self._purged_watermark: Time = MIN_TIME
        self._staged_values = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def subscribe(self, downstream: "Operator", port: int = 0) -> None:
        """Route this operator's output into ``downstream``'s input ``port``."""
        if not 0 <= port < downstream.arity:
            raise ValueError(f"{downstream.name} has no input port {port}")
        self._subscribers.append((downstream, port))

    def unsubscribe(self, downstream: "Operator", port: int = 0) -> None:
        """Remove a previously installed subscription."""
        self._subscribers.remove((downstream, port))

    def attach_sink(self, sink: object) -> None:
        """Attach a sink object exposing ``process``/``process_heartbeat``."""
        self._sinks.append(sink)

    def detach_sink(self, sink: object) -> None:
        """Detach a previously attached sink."""
        self._sinks.remove(sink)

    def clear_subscribers(self) -> None:
        """Disconnect all downstream operators and sinks."""
        self._subscribers.clear()
        self._sinks.clear()

    @property
    def subscribers(self) -> List[Tuple["Operator", int]]:
        """The current ``(operator, port)`` subscriptions (read-only view)."""
        return list(self._subscribers)

    # ------------------------------------------------------------------ #
    # Input protocol
    # ------------------------------------------------------------------ #

    def process(self, element: StreamElement, port: int = 0) -> None:
        """Consume one input element on ``port``."""
        if port:
            self._check_port(port)
        if SANITIZER is not None:
            SANITIZER.on_input(self, element, port)
        start = element.start
        if start < self._watermarks[port]:
            raise self._out_of_order(start, port)
        self._watermarks[port] = start
        self._on_element(element, port)
        self._advance()

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Consume an ordered run of elements followed by its watermark.

        The default replays the exact element-at-a-time protocol —
        validate, watermark, :meth:`_on_element`, :meth:`_advance` per
        element, then the batch's trailing watermark as a heartbeat — so
        any operator is batch-correct by construction.  Operators with
        run-amortisable work (probing, purging, metering) override this;
        every override must keep the observable behaviour bit-identical
        for the batches it accepts and fall back to this loop otherwise.
        """
        if port:
            self._check_port(port)
        if SANITIZER is not None:
            SANITIZER.on_batch(self, batch, port)
        watermarks = self._watermarks
        wm = watermarks[port]
        on_element = self._on_element
        advance = self._advance
        for element in batch.elements:
            start = element.start
            if start < wm:
                raise self._out_of_order(start, port)
            wm = start
            watermarks[port] = start
            on_element(element, port)
            advance()
        if batch.watermark > wm:
            self.process_heartbeat(batch.watermark, port)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        """Consume a heartbeat: no element on ``port`` will start before ``t``."""
        if port:
            self._check_port(port)
        if t <= self._watermarks[port]:
            return
        self._watermarks[port] = t
        self._on_heartbeat(t, port)
        self._advance()

    def _check_port(self, port: int) -> None:
        # Entry points call this for non-zero ports only: port 0 exists
        # on every operator (arity >= 1), so the common call skips it.
        if not 0 <= port < self.arity:
            raise ValueError(f"{self.name} has no input port {port}")

    def _out_of_order(self, start: Time, port: int) -> ValueError:
        """The error for an element starting below ``port``'s watermark."""
        return ValueError(
            f"{self.name}: out-of-order element on port {port}: "
            f"{start} < watermark {self._watermarks[port]}"
        )

    @property
    def min_watermark(self) -> Time:
        """The least per-port watermark: the operator's notion of progress."""
        return min(self._watermarks)

    def watermark(self, port: int) -> Time:
        """The watermark of a single input port."""
        self._check_port(port)
        return self._watermarks[port]

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    def _on_element(self, element: StreamElement, port: int) -> None:
        """Handle one input element; subclasses must override."""
        raise NotImplementedError

    def _on_heartbeat(self, t: Time, port: int) -> None:
        """Handle a heartbeat; default does nothing beyond watermarking."""

    def _on_watermark(self, watermark: Time) -> None:
        """Expire state up to ``watermark``; default does nothing."""

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The elements held in state for input ``port`` — the one read hook.

        Moving States, checkpoints, the model checker's digest and the
        recount below all read operator state through it.  The default
        holds nothing; an operator that keeps per-port state overrides it.
        """
        self._check_port(port)
        return []

    def state_value_count(self) -> int:
        """Number of payload values in state — the Figure 5 memory metric.

        Counts attribute values rather than elements, matching the paper's
        "we only measured the memory allocated for the values"; staged but
        unreleased output is included since it occupies memory too.  The
        count is maintained incrementally (O(1) here); the recount through
        :meth:`state_of_port` survives as :meth:`state_value_count_slow`
        (a join recounts its raw bucket entries instead), and an installed
        sanitizer asserts the two equal on every advance (SAN007).
        """
        return self._staged_values + self._state_value_count()

    def _state_value_count(self) -> int:
        """Payload values in operator state (excluding staged output).

        Stateful operators override this with their O(1) running
        counters; the default recounts by reading every port.
        """
        return sum(
            len(e.payload) for port in range(self.arity) for e in self.state_of_port(port)
        )

    def state_value_count_slow(self) -> int:
        """The pre-index count: recompute by reading every held element."""
        staged = sum(len(entry[-1].payload) for entry in self._heap)
        return staged + Operator._state_value_count(self)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def _emit(self, element: StreamElement) -> None:
        """Forward ``element`` to all subscribers immediately."""
        if SANITIZER is not None:
            SANITIZER.on_emit(self, element)
        for downstream, port in self._subscribers:
            downstream.process(element, port)
        for sink in self._sinks:
            sink.process(element)

    def _emit_batch(self, batch: Batch) -> None:
        """Forward a whole batch to all subscribers and sinks.

        Subscribers receive the batch object (one dispatch per edge
        instead of one per element); sinks keep their element-wise duck
        type unless they expose ``process_batch`` themselves.
        """
        if SANITIZER is not None:
            SANITIZER.on_emit_batch(self, batch)
        for downstream, port in self._subscribers:
            downstream.process_batch(batch, port)
        for sink in self._sinks:
            deliver_to_sink(sink, batch)

    def _emit_heartbeat(self, t: Time) -> None:
        """Forward a heartbeat to all subscribers."""
        for downstream, port in self._subscribers:
            downstream.process_heartbeat(t, port)
        for sink in self._sinks:
            sink.process_heartbeat(t)

    def _stage_key(self, element: StreamElement) -> object:
        """Tie-break key among staged results with *equal* start timestamps.

        The staged heap releases by ``(start, stage_key, sequence)``.  The
        default key is a constant, so equal-start results come out in
        insertion order — the historical behaviour.  Operators whose
        equal-start output order is semantically arbitrary (snapshots are
        unordered bags) may override this with a content key, making the
        equal-start release order *canonical*: independent of arrival
        interleaving, so the output order is fixed by the input's content.
        """
        return 0

    def _stage(self, element: StreamElement) -> None:
        """Queue ``element`` for ordered release (or emit now if stateless)."""
        if self._ordered_output:
            heapq.heappush(
                self._heap,
                (element.start, self._stage_key(element), next(self._sequence), element),
            )
            self._staged_values += len(element.payload)
        else:
            self._emit(element)

    def _output_watermark(self, watermark: Time) -> Time:
        """The progress promise this operator can make to its subscribers.

        Defaults to the input watermark; operators whose output lags behind
        their input (e.g. a count-based window waiting for successors)
        override this to promise less.
        """
        return watermark

    def _advance(self) -> None:
        """Run expiration and release ordered output up to the watermark.

        Expiration (:meth:`_on_watermark`) only runs when the minimum
        watermark actually moved since the last call: heartbeats that
        raise a non-minimal port's watermark cannot expire anything, and
        skipping them keeps redundant purge work off the hot path.
        """
        watermarks = self._watermarks
        watermark = watermarks[0] if len(watermarks) == 1 else min(watermarks)
        if watermark > self._purged_watermark:
            self._purged_watermark = watermark
            self._on_watermark(watermark)
        if self._ordered_output:
            heap = self._heap
            while heap and heap[0][0] <= watermark:
                element = heapq.heappop(heap)[-1]
                self._staged_values -= len(element.payload)
                self._emit(element)
        promise = self._output_watermark(watermark)
        if promise > self._emitted_watermark:
            self._emitted_watermark = promise
            self._emit_heartbeat(promise if promise < MAX_TIME else MAX_TIME)
        if SANITIZER is not None:
            SANITIZER.on_advance(self)

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def progress_state(self) -> dict:
        """Capture the operator's temporal progress for a checkpoint.

        Covers the machinery every operator shares — per-port watermarks,
        the emitted/purged progress marks, and staged-but-unreleased
        output in heap pop order.  Operator-specific state travels
        separately through ``state_of_port``/``absorb_state``.
        """
        staged = [entry[-1] for entry in sorted(self._heap)]
        return {
            "watermarks": list(self._watermarks),
            "emitted_watermark": self._emitted_watermark,
            "purged_watermark": self._purged_watermark,
            "staged": staged,
        }

    def restore_progress(self, progress: dict) -> None:
        """Re-install progress captured by :meth:`progress_state`.

        Must run *before* ``absorb_state`` on a freshly built operator:
        absorbing hooks derive their internal frontiers from the purged
        watermark set here.  Staged elements re-enter the heap with fresh
        sequence numbers in their original pop order, so release order is
        identical to the uninterrupted run.
        """
        watermarks = progress["watermarks"]
        if len(watermarks) != self.arity:
            raise ValueError(
                f"{self.name}: progress has {len(watermarks)} watermarks "
                f"for arity {self.arity}"
            )
        self._watermarks = list(watermarks)
        self._emitted_watermark = progress["emitted_watermark"]
        self._purged_watermark = progress["purged_watermark"]
        self._heap = []
        self._sequence = itertools.count()
        self._staged_values = 0
        for element in progress["staged"]:
            heapq.heappush(
                self._heap,
                (element.start, self._stage_key(element), next(self._sequence), element),
            )
            self._staged_values += len(element.payload)

    #: True while :meth:`flush` drains staged output unconditionally; the
    #: sanitizer suspends its emission-order checks for the drain (there is
    #: no more input to order against).
    _draining = False

    def flush(self) -> None:
        """Release all staged output unconditionally (end-of-stream drain)."""
        self._draining = True
        try:
            while self._heap:
                self._emit(heapq.heappop(self._heap)[-1])
            self._staged_values = 0
        finally:
            self._draining = False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StatelessOperator(Operator):
    """Base for selection/projection-style operators: no state, direct emit.

    The run protocol of Section 2.2 — consume a run ordered by ``t_S``,
    move the watermark, transform, forward, promise progress — is written
    here once (:meth:`process_batch`, :meth:`_on_element`).  A subclass
    only decides what differs: its pure per-element :meth:`_apply` (from
    which :meth:`evaluate` follows), its meter :attr:`category` and
    per-element :attr:`cost`, and optionally :meth:`_map_batch` when it
    can rewrite a whole run without boxing it.  It defines no
    ``process``/``process_batch`` and never touches ``_watermarks`` (lint
    rule RLB010).

    One input, nothing to purge, nothing staged, and the output promise
    is the input watermark: progress through such an operator is a
    *relay* — move the three marks, pass the heartbeat on.  This class
    therefore replaces the generic watermark protocol with
    :meth:`_advance` below and never calls :meth:`_on_heartbeat`,
    :meth:`_on_watermark` or :meth:`_output_watermark`; a subclass that
    needs one of them (or ordered output) is not stateless and derives
    from :class:`Operator` instead (RLB010 as well).
    """

    #: Meter category charged per input element; ``None`` charges nothing.
    category: Optional[str] = None
    #: Cost units charged per input element.
    cost = 1

    def __init__(self, name: str = "") -> None:
        super().__init__(arity=1, name=name, ordered_output=False)

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """The one stateless run body: ``len(batch) * cost`` in one charge,
        survivors forwarded as one batch, one relay for the whole run.

        Observably identical to the element loop: each intermediate
        heartbeat promise would equal the start of the element that just
        preceded it — a no-op at every subscriber that consumed it.
        """
        if port:
            self._check_port(port)
        if SANITIZER is not None:
            SANITIZER.on_batch(self, batch, 0)
        watermarks = self._watermarks
        first = batch.first_start
        if first < watermarks[0]:
            raise self._out_of_order(first, 0)
        last = watermarks[0] = batch.last_start
        if self.category is not None:
            self.meter.charge(len(batch) * self.cost, self.category)
        out = self._map_batch(batch)
        if out is not None:
            self._emit_batch(out)
        self._advance()
        if batch.watermark > last:
            self.process_heartbeat(batch.watermark, 0)

    def process_heartbeat(self, t: Time, port: int = 0) -> None:
        if port:
            self._check_port(port)
        if t > self._watermarks[0]:
            self._watermarks[0] = t
            self._advance()

    def _on_element(self, element: StreamElement, port: int) -> None:
        if self.category is not None:
            self.meter.charge(self.cost, self.category)
        out = self._apply(element)
        if out is not None:
            self._emit(out)

    def _advance(self) -> None:
        """Relay the input watermark: exactly the marks, the heartbeat
        and the sanitizer call :meth:`Operator._advance` would make."""
        t = self._watermarks[0]
        if t > self._purged_watermark:
            self._purged_watermark = t
        if t > self._emitted_watermark:
            self._emitted_watermark = t
            self._emit_heartbeat(t if t < MAX_TIME else MAX_TIME)
        if SANITIZER is not None:
            SANITIZER.on_advance(self)

    def _apply(self, element: StreamElement) -> Optional[StreamElement]:
        """What the operator passes on for ``element`` — ``None`` when it
        drops it — as a pure function: no metering, no watermark movement,
        no emission.  The one thing every subclass states; an operator
        without it cannot be evaluated (plan verifier check FLM004).

        Per element rather than per run on purpose: the element path is
        what the service workload runs, and going through a one-element
        list and a comprehension there measured +4 % pass CPU.
        """
        raise NotImplementedError(f"{type(self).__name__} has no pure _apply hook")

    def evaluate(self, elements: List[StreamElement]) -> List[StreamElement]:
        """The operator's output for ``elements``, as a pure function.

        The run protocol above forwards what this returns, and
        state-handover code (Moving States seeding, fluid migration's
        staged replay) computes with it what the operator *would* pass
        downstream.
        """
        return [out for out in map(self._apply, elements) if out is not None]

    def _map_batch(self, batch: Batch) -> Optional[Batch]:
        """The run forwarded for ``batch``, or ``None`` when nothing survives.

        The default boxes the run through :meth:`evaluate`; operators that
        can rewrite whole columns (windows) or pass the run on untouched
        (``Router``) override this so a run's columns pass on unboxed.
        """
        survivors = self.evaluate(batch.elements)
        return batch.with_elements(survivors) if survivors else None


class StatefulOperator(Operator):
    """Base for operators that keep state and stage ordered output."""

    def __init__(self, arity: int = 1, name: str = "") -> None:
        super().__init__(arity=arity, name=name, ordered_output=True)

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Run-amortised batch path for uniform-start runs.

        The first element replays the exact element protocol — it probes
        pre-purge state and its :meth:`_advance` runs the watermark purge
        for the whole run.  The remaining elements cannot move any
        watermark (same start, same port), so their intermediate advances
        would neither purge nor emit heartbeats, and the staged results
        they would release come out of the final advance in the identical
        ``(start, sequence)`` order; deferring them is observation-
        preserving.  Non-uniform batches fall back to the element loop.

        The split stays even when the first advance cannot purge or
        promise (the hash join drops it then): an aggregate or a
        difference can stage results that start *below* the run start, so
        the first advance's release is not a prefix of one joint release.
        """
        elements = batch.elements
        if len(elements) < 2 or not batch.uniform_start:
            super().process_batch(batch, port)
            return
        if port:
            self._check_port(port)
        if SANITIZER is not None:
            SANITIZER.on_batch(self, batch, port)
        start = elements[0].start
        if start < self._watermarks[port]:
            raise self._out_of_order(start, port)
        self._watermarks[port] = start
        on_element = self._on_element
        on_element(elements[0], port)
        self._advance()
        for element in elements[1:]:
            on_element(element, port)
        self._advance()
        if batch.watermark > start:
            self.process_heartbeat(batch.watermark, port)
