"""The stream-invariant sanitizer: opt-in runtime checking of the
physical-stream contract.

The correctness of every operator — and of every migration strategy — rests
on a handful of *physical stream invariants* (Section 2.2 of the paper):
validity intervals are half-open and non-empty (``t_S < t_E``); start
timestamps are non-decreasing per stream; watermarks only move forward; an
operator never emits below the progress promise it has already made
downstream; batches are faithful run encodings of the element protocol; and
the incremental state accounting agrees with a from-scratch recount.  The
engine checks the cheap subset of these unconditionally (out-of-order input
raises).  The sanitizer checks *all* of them, at every hook point, when
explicitly enabled:

* :func:`sanitized` — for a block; ``StreamSanitizer().install()`` — for
  the rest of the process;
* ``REPRO_SANITIZE=1`` in the environment — read once per process, by the
  test suite's ``conftest.py`` (for the whole session) and by the
  ``python -m repro.analysis`` command line; the engine never reads it.

When not installed the hooks are a single ``is None`` test on a module
global (:data:`repro.operators.base.SANITIZER`), so production runs pay
nothing.  The same global is the engine's one self-check switch: while a
sanitizer is installed, every purge also checks itself from the inside
(join sides against a scan of their live buckets, the aggregate's
finalisation against a rescan-and-refold, the distinct, difference and
coalesce purges against their purge condition), raising a plain
``AssertionError`` on divergence.

Violations raise :class:`SanitizerViolation` (an ``AssertionError``
subclass, so plain ``pytest`` reporting and ``-O`` stripping semantics
behave as expected) carrying a stable machine-readable ``code``:

==========  ===========================================================
``SAN001``  inverted or empty validity interval (``t_S >= t_E``)
``SAN002``  emission below the operator's promised watermark
``SAN003``  non-monotone emission order from one operator
``SAN004``  batch elements not in start-timestamp order
``SAN005``  batch trailing watermark below its last element's start
``SAN006``  batch flagged ``uniform_start`` but starts differ
``SAN007``  incremental state count disagrees with a full recount
``SAN008``  source fed an element below its own watermark
``SAN009``  output-gate order violation (strict mode only)
==========  ===========================================================

The one *tolerated* anomaly is SAN009: the Parallel Track baseline's
end-of-migration buffer flush delivers results whose start timestamps
interleave with already-delivered ones — by design, and measured by the
gate's ``order_violations`` counter.  The sanitizer records every gate
violation; constructed with ``strict_gate=True`` (what ``REPRO_SANITIZE``
installs) it raises on all of them except that flush,
which Parallel Track brackets with ``gate.expects_disorder``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

from ..operators import base as _base
from ..temporal.batch import Batch
from ..temporal.element import StreamElement
from ..temporal.time import Time


class SanitizerViolation(AssertionError):
    """A broken stream invariant, caught at a sanitizer hook point.

    Attributes:
        code: the stable violation class identifier (``SAN001``...).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class StreamSanitizer:
    """Checks physical-stream invariants at the engine's hook points.

    Args:
        strict_gate: raise on output-gate ordering violations instead of
            only recording them.  The Parallel Track buffer flush — the
            anomaly the gate counter exists to measure — stays tolerated.

    The incremental state accounting is checked against a full recount
    on every watermark advance (SAN007) — O(state) per advance.
    """

    def __init__(self, strict_gate: bool = False) -> None:
        self.strict_gate = strict_gate
        #: Recorded (gate name, element) pairs of tolerated SAN009 events.
        self.gate_violations: List[Tuple[str, StreamElement]] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def install(self) -> "StreamSanitizer":
        """Make this sanitizer the process-wide active one (for a block: :func:`sanitized`)."""
        _base.SANITIZER = self
        return self

    # ------------------------------------------------------------------ #
    # Shared checks
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_interval(element: StreamElement, where: str) -> None:
        interval = element.interval
        if not interval.start < interval.end:
            raise SanitizerViolation(
                "SAN001",
                f"{where}: inverted validity interval "
                f"[{interval.start}, {interval.end}) — t_S must be < t_E; "
                "an element must be valid for at least one instant",
            )

    # ------------------------------------------------------------------ #
    # Hook points (called from repro.operators.base and friends)
    # ------------------------------------------------------------------ #

    def on_input(self, op: object, element: StreamElement, port: int) -> None:
        """An operator is about to consume ``element`` on ``port``."""
        self._check_interval(element, f"{getattr(op, 'name', op)} input port {port}")

    def on_emit(self, op: object, element: StreamElement) -> None:
        """An operator is about to forward ``element`` downstream."""
        name = getattr(op, "name", str(op))
        self._check_interval(element, f"{name} output")
        if getattr(op, "_draining", False):
            # flush(): the end-of-stream drain legitimately releases staged
            # results below the promise (there is no more input to order
            # against).  Coalesce's table flush rides the same path.
            return
        promised = getattr(op, "_emitted_watermark", None)
        if promised is not None and element.start < promised:
            raise SanitizerViolation(
                "SAN002",
                f"{name}: emitted element starting at {element.start} below "
                f"its own promised watermark {promised} — downstream "
                "operators have already been told no such element can "
                "appear, and may have purged the state it would join with",
            )
        last = getattr(op, "_san_last_emit", None)
        if last is not None and element.start < last:
            raise SanitizerViolation(
                "SAN003",
                f"{name}: emitted element starting at {element.start} after "
                f"one starting at {last} — output must be a physical stream "
                "(non-decreasing start timestamps); stage results instead "
                "of emitting them directly",
            )
        op._san_last_emit = element.start  # type: ignore[attr-defined]

    def on_emit_batch(self, op: object, batch: Batch) -> None:
        """An operator is about to forward a whole batch downstream.

        Sanitizer hook of the batch emit path; the test suites run under an
        installed sanitizer.
        """
        self.on_batch(op, batch, port=-1)
        for element in batch.elements:
            self.on_emit(op, element)

    def on_batch(self, op: object, batch: Batch, port: int) -> None:
        """An operator is about to consume (or emit, port=-1) a batch.

        Sanitizer hook of the batch input path; the test suites run under an
        installed sanitizer.
        """
        name = getattr(op, "name", str(op))
        where = f"{name} {'output' if port < 0 else f'input port {port}'}"
        elements = batch.elements
        if not elements:
            raise SanitizerViolation("SAN004", f"{where}: empty batch")
        last: Optional[Time] = None
        for element in elements:
            self._check_interval(element, where)
            if last is not None and element.start < last:
                raise SanitizerViolation(
                    "SAN004",
                    f"{where}: batch elements out of order — start "
                    f"{element.start} after {last}; a batch must encode an "
                    "ordered run of the element protocol",
                )
            last = element.start
        if batch.watermark < elements[-1].start:
            raise SanitizerViolation(
                "SAN005",
                f"{where}: batch trailing watermark {batch.watermark} below "
                f"its last element's start {elements[-1].start} — the "
                "watermark would retract a promise the run itself implies",
            )
        if batch.uniform_start and elements[0].start != elements[-1].start:
            raise SanitizerViolation(
                "SAN006",
                f"{where}: batch flagged uniform_start but spans starts "
                f"{elements[0].start}..{elements[-1].start} — operators "
                "skip per-element watermark work on the strength of this "
                "flag",
            )

    def on_advance(self, op: object) -> None:
        """An operator finished a watermark advance (purge + release)."""
        counter = getattr(op, "_state_value_count", None)
        if counter is None:
            return
        fast = op._staged_values + counter()  # type: ignore[attr-defined]
        slow = op.state_value_count_slow()  # type: ignore[attr-defined]
        if fast != slow:
            raise SanitizerViolation(
                "SAN007",
                f"{getattr(op, 'name', op)}: incremental state count {fast} "
                f"disagrees with full recount {slow} — the operator's "
                "running counter missed an insert or a purge (memory "
                "metrics and migration-progress checks are built on it)",
            )

    def on_source(self, name: str, element: StreamElement, watermark: Time) -> None:
        """The executor is about to ingest ``element`` for source ``name``."""
        self._check_interval(element, f"source {name!r}")
        if element.start < watermark:
            raise SanitizerViolation(
                "SAN008",
                f"source {name!r}: element starting at {element.start} "
                f"behind the source watermark {watermark} — per-source "
                "start-timestamp order is the contract every downstream "
                "watermark rests on",
            )

    def on_gate(self, gate: object, element: StreamElement, violated: bool) -> None:
        """The output gate is about to deliver ``element``."""
        self._check_interval(element, f"gate {getattr(gate, 'name', gate)}")
        if violated:
            self.gate_violations.append((getattr(gate, "name", "gate"), element))
            if self.strict_gate and not getattr(gate, "expects_disorder", False):
                raise SanitizerViolation(
                    "SAN009",
                    f"gate {getattr(gate, 'name', gate)}: result starting at "
                    f"{element.start} delivered after a later one — the "
                    "query output is no longer a physical stream (only the "
                    "Parallel Track baseline's end-of-migration flush may "
                    "do this)",
                )


@contextlib.contextmanager
def sanitized(
    sanitizer: Optional[StreamSanitizer] = None,
) -> Iterator[StreamSanitizer]:
    """Run a block with a sanitizer installed, restoring the previous one.

    Installs a sanitizer for a block; the test suites' session fixture uses it.
    """
    previous = _base.SANITIZER
    active = (sanitizer or StreamSanitizer()).install()
    try:
        yield active
    finally:
        _base.SANITIZER = previous
