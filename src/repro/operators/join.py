"""Snapshot-reducible sliding-window joins.

The temporal join of Section 2.2: two elements join iff (a) the join
predicate holds on their payloads and (b) their validity intervals
intersect; the result's interval is the intersection and its payload the
concatenation.  Both a symmetric nested-loops variant (arbitrary theta
predicates, the paper's experimental setup) and a symmetric hash variant
(positional equi-joins) are provided, both holding each side in a
:class:`~repro.operators.colstate.ColumnarJoinState`.  State expires by
the watermark rule of Section 2.2 unless a retention rule is installed
(:meth:`_JoinBase.set_retention`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..temporal.batch import Batch
from ..temporal.element import Payload, StreamElement, combine_flags
from ..temporal.interval import TimeInterval
from ..temporal.time import Time
from . import base
from .base import StatefulOperator
from .colstate import ColumnarJoinState, Entry, RetentionRule

# Metering note: both joins charge predicate work in aggregate — one
# ``charge(cost * candidates)`` per probe instead of one call per
# candidate.  The totals (overall and per category) are identical to the
# historic per-candidate charging; only the Python call count changes,
# which is what used to dominate the probe loop.


class _JoinBase(StatefulOperator):
    """Shared mechanics of the symmetric join variants.

    Each input side is a :class:`~repro.operators.colstate.ColumnarJoinState`
    (per-key lists of ``(start, end, row, flag)`` entries under one expiry
    calendar); purging, retention, accounting and the state handover hooks
    touch only those and live here.  A subclass probes the partner side and says
    which bucket a payload is filed under (:meth:`_bucket_of`).
    """

    def __init__(self, predicate_cost: int, name: str) -> None:
        super().__init__(arity=2, name=name)
        self.predicate_cost = predicate_cost
        #: Key under which this join's selectivity is tracked in the
        #: statistics catalog (the logical condition's signature); set by
        #: the physical builder, consumed by the executor's wiring.
        self.statistics_key: Optional[str] = None
        #: Optional observer called with (candidates_tested, matches).
        self.selectivity_probe: Optional[Callable[[int, int], None]] = None
        self._states: List[ColumnarJoinState] = [
            ColumnarJoinState(),
            ColumnarJoinState(),
        ]

    def _bucket_of(self, payload: Payload, port: int) -> Any:
        """The bucket key under which ``port``'s side files ``payload``."""
        raise NotImplementedError

    def _stage_matches(
        self, element: StreamElement, port: int, entries: Iterable[Entry]
    ) -> None:
        """Stage ``element`` joined with each partner entry whose interval
        intersects its own, in ``entries`` order."""
        payload = element.payload
        s = element.interval.start
        e = element.interval.end
        flag = element.flag
        left = port == 0
        stage = self._stage
        for ps, pe, prow, pflag in entries:
            s2 = ps if ps > s else s
            e2 = pe if pe < e else e
            if s2 < e2:
                stage(
                    StreamElement(
                        payload + prow if left else prow + payload,
                        TimeInterval(s2, e2),
                        combine_flags(flag, pflag),
                    )
                )

    def _on_watermark(self, watermark: Time) -> None:
        for side in (0, 1):
            self._states[side].expire(watermark)

    def set_retention(self, rule: RetentionRule) -> None:
        """Install the purge rule of both sides; ``None`` is Section 2.2's
        ``t_E <= watermark``.  The Parallel Track baseline installs the
        slower tuple-timestamp rule of Zhu et al. mid-life, which is what
        stretches its migration to ~2w (Section 4.4 of the paper)."""
        for side in (0, 1):
            self._states[side].set_retention(rule)

    def _state_value_count(self) -> int:
        return self._states[0].value_count() + self._states[1].value_count()

    def held_entries(self) -> Iterator[Entry]:
        """Both sides' state as raw ``(start, end, row, flag)`` entries, in
        ``state_of_port`` order, port 0 first — nothing boxed.  The
        sanitizer's recount and Parallel Track's completion check read it."""
        for state in self._states:
            for bucket in state.buckets.values():
                yield from bucket

    def state_value_count_slow(self) -> int:
        """The recount from the bucket entries, without boxing them."""
        staged = sum(len(entry[-1].payload) for entry in self._heap)
        return staged + sum(len(row) for _, _, row, _ in self.held_entries())

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The alive elements received on one input — used by Moving States."""
        self._check_port(port)
        return list(self._states[port])

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Merge elements into one input's state — used by Moving States,
        fluid migration and checkpoint restore.

        Seeded intervals may lie below the port watermark; they enter
        state directly (never ``process``), so ordering checks don't
        apply, and an already-expired straggler simply never intersects
        a live probe.
        """
        self._check_port(port)
        insert = self._states[port].insert
        for element in elements:
            insert(
                self._bucket_of(element.payload, port),
                element.interval.start,
                element.interval.end,
                element.payload,
                element.flag,
            )


class NestedLoopsJoin(_JoinBase):
    """Symmetric nested-loops join for arbitrary theta predicates.

    The paper's experiments use 4-way nested-loops join trees; the
    ``predicate_cost`` knob reproduces the "more expensive join predicate"
    of the Figure 6 experiment.  Each side files every element in one
    bucket, which a probe walks in insertion order.

    Args:
        predicate: ``(left_payload, right_payload) -> bool``.
        predicate_cost: cost units charged per predicate evaluation.
    """

    def __init__(
        self,
        predicate: Callable[[Payload, Payload], bool],
        predicate_cost: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(predicate_cost, name or "nl-join")
        self.predicate = predicate

    def _bucket_of(self, payload: Payload, port: int) -> Any:
        return None

    def _on_element(self, element: StreamElement, port: int) -> None:
        partner = self._states[1 - port]
        tested = len(partner)
        predicate = self.predicate
        payload = element.payload
        candidates = partner.buckets.get(None, ())
        if port == 0:
            matched = [entry for entry in candidates if predicate(payload, entry[2])]
        else:
            matched = [entry for entry in candidates if predicate(entry[2], payload)]
        if tested:
            self.meter.charge(self.predicate_cost * tested, "join-predicate")
        self._stage_matches(element, port, matched)
        if self.selectivity_probe is not None and tested:
            self.selectivity_probe(tested, len(matched))
        self._states[port].insert(
            None, element.interval.start, element.interval.end, payload, element.flag
        )
        self.meter.charge(1, "join-insert")

    def pair_matches(self, left: Payload, right: Payload) -> bool:
        """Whether two payloads satisfy the join predicate."""
        return self.predicate(left, right)


class HashJoin(_JoinBase):
    """Symmetric hash equi-join on one payload position per side.

    Args:
        left_field / right_field: the payload positions whose values must
            be equal; results concatenate the left and the right payload.
        predicate_cost: cost units charged per candidate comparison.

    Both sides are bucketed by join key and probed by two loops.  Every run
    goes through the compiled probe kernels (:meth:`process_batch`), which
    read the batch's column view; a single element goes through
    :meth:`_on_element`.  Measured on ``service_fanout``, which pushes one
    element per call: routing that element through the run loop instead
    read about 9 % lower ``throughput_eps``.
    """

    #: Verifier/fluid-migration marker: state is partitioned by the join
    #: key, so a key-range drain touches only the matching buckets.
    keyed_state = True

    def __init__(
        self,
        left_field: int,
        right_field: int,
        predicate_cost: int = 1,
        name: str = "",
    ) -> None:
        # Deferred: ``repro.plans`` imports this module.
        from ..plans.kernels import compile_probe_kernel

        super().__init__(predicate_cost, name or "hash-join")
        #: The payload position holding the join key, per input port.
        self.key_fields: Tuple[int, int] = (left_field, right_field)
        self._kernels = (
            compile_probe_kernel(0, left_field).fn,
            compile_probe_kernel(1, right_field).fn,
        )

    def _bucket_of(self, payload: Payload, port: int) -> Any:
        return payload[self.key_fields[port]]

    # ------------------------------------------------------------------ #
    # Runs: the probe kernels
    # ------------------------------------------------------------------ #

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Kernel-probe a run, one uniform-start run at a time.

        A uniform run whose start moves the minimum watermark past the
        purged or promised mark is split around the purge exactly like
        :meth:`StatefulOperator.process_batch`: the first element probes
        *pre-purge* partner state (expired-but-unpurged partners still
        match, as in the element protocol), the purge runs once, and the
        tail probes post-purge state.  Otherwise — under global
        heartbeats, every executor run — the first element's advance
        would neither purge nor promise, so the run is probed in one
        slice: every result due then starts at the run start, and one
        release in ``(start, sequence)`` order (or one forwarded batch) is
        the two slices' releases concatenated.  Flagged input or flagged
        state (Parallel Track lineage) takes the generic protocol element
        by element instead, since the kernels do not model flags.
        """
        if (
            batch.flags is not None
            or self._states[0].flagged
            or self._states[1].flagged
        ):
            super().process_batch(batch, port)
            return
        if not batch.uniform_start:
            for run in batch.runs():
                self.process_batch(run, port)
            return
        if port:
            self._check_port(port)
        if base.SANITIZER is not None:
            base.SANITIZER.on_batch(self, batch, port)
        starts = batch.starts
        t = starts[0]
        watermarks = self._watermarks
        if t < watermarks[port]:
            raise self._out_of_order(t, port)
        watermarks[port] = t
        n = len(starts)
        watermark = min(watermarks)
        if n == 1 or (
            watermark <= self._purged_watermark
            and watermark <= self._emitted_watermark
        ):
            slices: Tuple[Tuple[int, int], ...] = ((0, n),)
        else:
            slices = ((0, 1), (1, n))
        ends = batch.ends
        rows = batch.rows
        own = self._states[port]
        partner = self._states[1 - port]
        kernel = self._kernels[port]
        key_index = self.key_fields[port]
        probe = self.selectivity_probe
        charge = self.meter.charge
        for lo, hi in slices:
            out_s: List[Time] = []
            out_e: List[Time] = []
            out_r: List[Payload] = []
            tested = len(partner)
            matches, ahead = kernel(
                lo, hi, starts, ends, rows, partner.buckets, out_s, out_e, out_r
            )
            own.insert_run(key_index, starts, ends, rows, lo, hi)
            charge(hi - lo, "join-hash")
            if matches:
                charge(self.predicate_cost * matches, "join-predicate")
            if probe is not None and tested:
                probe(tested * (hi - lo), matches)
            self._flush_columnar(out_s, out_e, out_r, ahead)
        if batch.watermark > t:
            self.process_heartbeat(batch.watermark, port)

    def _flush_columnar(
        self,
        out_s: List[Time],
        out_e: List[Time],
        out_r: List[Payload],
        ahead: bool,
    ) -> None:
        """Purge, then fast-emit or stage the probe output, then advance.

        The fast branch forwards the probe output as one batch of columns: it
        applies only when the element path would have released exactly
        these results, in this order, right now — heap empty, every
        result starting at the run start (``not ahead``), the watermark
        at or past it, and at most one receiver (batch dispatch groups
        per-receiver, element dispatch interleaves; with one receiver
        the two orders coincide).  Otherwise results are staged and
        :meth:`_advance` releases them through the ordinary heap
        discipline.
        """
        watermark = self.min_watermark
        if watermark > self._purged_watermark:
            self._purged_watermark = watermark
            self._on_watermark(watermark)
        if out_s:
            if (
                not ahead
                and not self._heap
                and watermark >= out_s[0]
                and len(self._subscribers) + len(self._sinks) <= 1
            ):
                self._emit_batch(
                    Batch.from_columns(
                        out_s, out_e, out_r, None, out_s[-1], None, True
                    )
                )
            else:
                stage = self._stage
                for s, e, row in zip(out_s, out_e, out_r):
                    stage(StreamElement(row, TimeInterval(s, e)))
        self._advance()

    # ------------------------------------------------------------------ #
    # Single elements
    # ------------------------------------------------------------------ #

    def _on_element(self, element: StreamElement, port: int) -> None:
        """One element against the partner side (``service_fanout`` regime)."""
        payload = element.payload
        key = payload[self.key_fields[port]]
        self.meter.charge(1, "join-hash")
        partner = self._states[1 - port]
        matches = 0
        bucket = partner.buckets.get(key)
        if bucket:
            matches = len(bucket)
            self._stage_matches(element, port, bucket)
            self.meter.charge(self.predicate_cost * matches, "join-predicate")
        if self.selectivity_probe is not None:
            # Selectivity relative to the full partner state: the hash
            # index prunes non-matching candidates, but the estimate must
            # describe the predicate, not the index.
            tested = len(partner)
            if tested:
                self.selectivity_probe(tested, matches)
        self._states[port].insert(
            key, element.interval.start, element.interval.end, payload, element.flag
        )

    def extract_state_of_port(
        self, port: int, key_predicate: Callable[[Any], bool]
    ) -> List[StreamElement]:
        """Drain the alive elements of one input whose *join key* satisfies
        ``key_predicate`` — the fluid-migration per-range counterpart of
        :meth:`state_of_port`.  The drained elements leave this side's
        state entirely; the untouched keys keep probing undisturbed.
        """
        self._check_port(port)
        return self._states[port].extract(key_predicate)

    def pair_matches(self, left: Payload, right: Payload) -> bool:
        """Whether two payloads satisfy the equi-join predicate."""
        return left[self.key_fields[0]] == right[self.key_fields[1]]


def equi_join(
    left_field: int,
    right_field: int,
    predicate_cost: int = 1,
    name: str = "",
) -> HashJoin:
    """Convenience constructor: a hash equi-join named after its fields."""
    return HashJoin(
        left_field,
        right_field,
        predicate_cost=predicate_cost,
        name=name or f"equi-join[{left_field}={right_field}]",
    )


def theta_join(
    predicate: Callable[[Payload, Payload], bool],
    predicate_cost: int = 1,
    name: str = "",
) -> NestedLoopsJoin:
    """Convenience constructor: nested-loops theta join."""
    return NestedLoopsJoin(predicate, predicate_cost=predicate_cost, name=name or "theta-join")
