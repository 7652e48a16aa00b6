"""Snapshot-reducible sliding-window joins.

The temporal join of Section 2.2: two elements join iff (a) the join
predicate holds on their payloads and (b) their validity intervals
intersect; the result's interval is the intersection and its payload the
concatenation.  Both a symmetric nested-loops variant (arbitrary theta
predicates, the paper's experimental setup) and a symmetric hash variant
(equi-joins) are provided.  State expires by the watermark rule of
Section 2.2.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..temporal.batch import Batch
from ..temporal.columnar import ColumnarBatch
from ..temporal.element import Payload, StreamElement, combine_flags
from ..temporal.interval import TimeInterval
from ..temporal.time import MAX_TIME, Time
from . import base
from .base import StatefulOperator
from .colstate import ColumnarJoinState
from .sweep import SweepArea

# Metering note: both joins charge predicate work in aggregate — one
# ``charge(cost * candidates)`` per probe instead of one call per
# candidate.  The totals (overall and per category) are identical to the
# historic per-candidate charging; only the Python call count changes,
# which is what used to dominate the probe loop.

#: Payload combiner: receives (left_payload, right_payload).
Combiner = Callable[[Payload, Payload], Payload]


def concat_payloads(left: Payload, right: Payload) -> Payload:
    """The default combiner: tuple concatenation."""
    return left + right


class _JoinBase(StatefulOperator):
    """Shared mechanics of the symmetric join variants."""

    def __init__(self, predicate_cost: int, name: str) -> None:
        super().__init__(arity=2, name=name)
        self.predicate_cost = predicate_cost
        #: Key under which this join's selectivity is tracked in the
        #: statistics catalog (the logical condition's signature); set by
        #: the physical builder, consumed by the executor's wiring.
        self.statistics_key: Optional[str] = None
        #: Optional observer called with (candidates_tested, matches).
        self.selectivity_probe: Optional[Callable[[int, int], None]] = None

    def _match(self, element: StreamElement, partner: StreamElement, port: int) -> None:
        """Combine ``element`` (arrived on ``port``) with a stored partner."""
        intersection = element.interval.intersect(partner.interval)
        if intersection is None:
            return
        if port == 0:
            left, right = element, partner
        else:
            left, right = partner, element
        payload = self.combiner(left.payload, right.payload)
        flag = combine_flags(left.flag, right.flag)
        self._stage(StreamElement(payload, intersection, flag))

    combiner: Combiner = staticmethod(concat_payloads)


class NestedLoopsJoin(_JoinBase):
    """Symmetric nested-loops join for arbitrary theta predicates.

    The paper's experiments use 4-way nested-loops join trees; the
    ``predicate_cost`` knob reproduces the "more expensive join predicate"
    of the Figure 6 experiment.

    Args:
        predicate: ``(left_payload, right_payload) -> bool``.
        combiner: result payload constructor, default concatenation.
        predicate_cost: cost units charged per predicate evaluation.
    """

    def __init__(
        self,
        predicate: Callable[[Payload, Payload], bool],
        combiner: Combiner = concat_payloads,
        predicate_cost: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(predicate_cost, name or "nl-join")
        self.predicate = predicate
        self.combiner = combiner
        self._states: List[SweepArea] = [SweepArea(), SweepArea()]

    def _on_element(self, element: StreamElement, port: int) -> None:
        partner_state = self._states[1 - port]
        tested = len(partner_state)
        predicate = self.predicate
        payload = element.payload
        if port == 0:
            matched = [p for p in partner_state if predicate(payload, p.payload)]
        else:
            matched = [p for p in partner_state if predicate(p.payload, payload)]
        if tested:
            self.meter.charge(self.predicate_cost * tested, "join-predicate")
        for partner in matched:
            self._match(element, partner, port)
        if self.selectivity_probe is not None and tested:
            self.selectivity_probe(tested, len(matched))
        self._states[port].insert(element)
        self.meter.charge(1, "join-insert")

    def _on_run_tail(self, elements: List[StreamElement], port: int) -> None:
        """Probe a uniform-start run against one partner snapshot.

        The run's first element already triggered the watermark purge, and
        inserts land on this port's own side, so the partner state is
        fixed for the whole tail — snapshot it once and probe with local
        bindings only.
        """
        partners = self._states[1 - port].as_list()
        tested = len(partners)
        predicate = self.predicate
        probe = self.selectivity_probe
        match = self._match
        insert = self._states[port].insert
        total = 0
        left = port == 0
        for element in elements[1:]:
            payload = element.payload
            if left:
                matched = [p for p in partners if predicate(payload, p.payload)]
            else:
                matched = [p for p in partners if predicate(p.payload, payload)]
            for partner in matched:
                match(element, partner, port)
            if probe is not None and tested:
                probe(tested, len(matched))
            insert(element)
            total += 1
        if tested:
            self.meter.charge(self.predicate_cost * tested * total, "join-predicate")
        self.meter.charge(total, "join-insert")

    def _on_watermark(self, watermark: Time) -> None:
        for side in (0, 1):
            self._states[side].expire(watermark)

    def _on_retention_change(self) -> None:
        for side in (0, 1):
            self._states[side].set_retention(self._retention)

    def _state_value_count(self) -> int:
        return self._states[0].value_count() + self._states[1].value_count()

    def state_elements(self) -> Iterator[StreamElement]:
        yield from self._states[0]
        yield from self._states[1]

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The alive elements received on one input — used by Moving States."""
        self._check_port(port)
        return list(self._states[port])

    def seed_state(self, port: int, elements: List[StreamElement]) -> None:
        """Replace one input's state wholesale — used by Moving States."""
        self._check_port(port)
        area = SweepArea(self._retention)
        area.replace(elements)
        self._states[port] = area

    def pair_matches(self, left: Payload, right: Payload) -> bool:
        """Whether two payloads satisfy the join predicate."""
        return self.predicate(left, right)


class HashJoin(_JoinBase):
    """Symmetric hash join for equi-join predicates.

    Args:
        left_key / right_key: key extractors applied to the payloads.
        combiner: result payload constructor, default concatenation.
        predicate_cost: cost units charged per candidate comparison.

    Both sides live in a :class:`~repro.operators.colstate.ColumnarJoinState`
    and every input reads and writes it through one of three probe loops:
    :meth:`_on_element` (one element per call), :meth:`_on_run_tail`
    (a uniform-start run of elements) and, once :meth:`enable_columnar`
    has compiled them, the probe kernels that :meth:`process_batch` runs
    over uniform-start :class:`~repro.temporal.columnar.ColumnarBatch` runs.
    """

    #: Verifier/fluid-migration marker: state is partitioned by the join
    #: key, so a key-range drain touches only the matching buckets.
    keyed_state = True
    #: Verifier hints: self-declared classification (CLS001 path) and
    #: the columnar-state marker checked by CLS003.
    migration_profile = "join"
    columnar_state = True

    #: Kernel-dispatch flag; when set, ``_probe_kernels``/``_key_indices``
    #: hold the per-port compiled kernels and positional key columns.
    _columnar = False
    _probe_kernels: Optional[Tuple[Any, Any]] = None
    _key_indices: Optional[Tuple[int, int]] = None

    def __init__(
        self,
        left_key: Callable[[Payload], Any],
        right_key: Callable[[Payload], Any],
        combiner: Combiner = concat_payloads,
        predicate_cost: int = 1,
        name: str = "",
    ) -> None:
        super().__init__(predicate_cost, name or "hash-join")
        self.combiner = combiner
        self._keys = (left_key, right_key)
        self._states: List[ColumnarJoinState] = [
            ColumnarJoinState(),
            ColumnarJoinState(),
        ]

    def enable_columnar(self, left_index: int, right_index: int) -> None:
        """Compile the probe kernels for columnar batch input.

        ``left_index``/``right_index`` are the payload positions the
        key extractors read — they MUST agree with the ``left_key`` /
        ``right_key`` callables (the physical builder guarantees this);
        the kernels read the positions, the element loops the callables.
        State is untouched, so this may be called at any time.  The
        kernels concatenate payloads inline, hence the combiner check.
        """
        from ..plans.kernels import compile_probe_kernel

        if self.combiner is not concat_payloads:
            raise ValueError(
                f"{self.name}: columnar mode requires the concat combiner"
            )
        self._columnar = True
        self._key_indices = (left_index, right_index)
        self._probe_kernels = (
            compile_probe_kernel(0, left_index),
            compile_probe_kernel(1, right_index),
        )

    # ------------------------------------------------------------------ #
    # Columnar batch path
    # ------------------------------------------------------------------ #

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Kernel-probe a columnar run; else the stateful batch protocol.

        The columnar path splits each uniform run around the watermark
        purge exactly like :meth:`StatefulOperator.process_batch`: the
        first element probes *pre-purge* partner state (expired-but-
        unpurged partners still match, as in the element protocol), the
        purge runs once, and the tail probes post-purge state.  Flagged
        input or flagged state (Parallel Track lineage) falls back to
        the element path, which the probe kernels do not model.
        """
        if (
            not self._columnar
            or type(batch) is not ColumnarBatch
            or batch.flags is not None
            or self._states[0].flagged
            or self._states[1].flagged
        ):
            super().process_batch(batch, port)
            return
        if not batch.uniform_start:
            for run in batch.runs():
                self.process_batch(run, port)
            return
        self._check_port(port)
        if base.SANITIZER is not None:
            base.SANITIZER.on_batch(self, batch, port)
        starts = batch.starts
        t = starts[0]
        if t < self._watermarks[port]:
            raise self._out_of_order(t, port)
        self._watermarks[port] = t
        n = len(starts)
        ends = batch.ends
        rows = batch.rows
        own = self._states[port]
        partner = self._states[1 - port]
        kernel = self._probe_kernels[port].fn
        key_index = self._key_indices[port]
        probe = self.selectivity_probe
        charge = self.meter.charge
        cost = self.predicate_cost
        out_s: List[Time] = []
        out_e: List[Time] = []
        out_r: List[Payload] = []
        tested = len(partner)
        matches, ahead = kernel(
            0, 1, starts, ends, rows,
            partner.buckets, partner.starts, partner.ends, partner.rows,
            out_s, out_e, out_r,
        )
        own.insert_run(key_index, starts, ends, rows, 0, 1)
        charge(1, "join-hash")
        if matches:
            charge(cost * matches, "join-predicate")
        if probe is not None and tested:
            probe(tested, matches)
        self._flush_columnar(out_s, out_e, out_r, ahead)
        if n > 1:
            out_s = []
            out_e = []
            out_r = []
            tested = len(partner)
            matches, ahead = kernel(
                1, n, starts, ends, rows,
                partner.buckets, partner.starts, partner.ends, partner.rows,
                out_s, out_e, out_r,
            )
            own.insert_run(key_index, starts, ends, rows, 1, n)
            charge(n - 1, "join-hash")
            if matches:
                charge(cost * matches, "join-predicate")
            if probe is not None and tested:
                probe(tested * (n - 1), matches)
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
        """The columnar twin of :meth:`Operator._advance`.

        Purge, release, promise — same sequence, same observations.  The
        fast branch forwards the probe output as one columnar batch: it
        applies only when the element path would have released exactly
        these results, in this order, right now — heap empty, every
        result starting at the run start (``not ahead``), the watermark
        at or past it, and at most one receiver (batch dispatch groups
        per-receiver, element dispatch interleaves; with one receiver
        the two orders coincide).  Otherwise results are staged and
        released through the ordinary heap discipline.
        """
        watermark = self.min_watermark
        if watermark > self._purged_watermark:
            self._purged_watermark = watermark
            self._on_watermark(watermark)
        if (
            out_s
            and not ahead
            and not self._heap
            and watermark >= out_s[0]
            and len(self._subscribers) + len(self._sinks) <= 1
        ):
            self._emit_batch(
                ColumnarBatch.from_columns(
                    out_s, out_e, out_r, None, out_s[-1], None, True
                )
            )
        else:
            if out_s:
                stage = self._stage
                for s, e, row in zip(out_s, out_e, out_r):
                    stage(StreamElement(row, TimeInterval(s, e)))
            heap = self._heap
            while heap and heap[0][0] <= watermark:
                element = heapq.heappop(heap)[-1]
                self._staged_values -= len(element.payload)
                self._emit(element)
        promise = self._output_watermark(watermark)
        if promise > self._emitted_watermark:
            self._emitted_watermark = promise
            self._emit_heartbeat(min(promise, MAX_TIME))
        if base.SANITIZER is not None:
            base.SANITIZER.on_advance(self)

    # ------------------------------------------------------------------ #
    # Element loops (plain batches, migration feeds, flagged input)
    #
    # Two copies of the probe loop on purpose.  Measured on a scratch
    # copy (ISSUE 24): dropping the _on_run_tail override (tail elements
    # through _on_element) read ~5 % lower join4_migrate throughput_eps
    # (3 pairs); routing _on_element through the run loop ~9 % lower
    # service_fanout throughput_eps (4 pairs).
    # ------------------------------------------------------------------ #

    def _on_element(self, element: StreamElement, port: int) -> None:
        """One element against the partner side (``service_fanout`` regime)."""
        payload = element.payload
        key = self._keys[port](payload)
        self.meter.charge(1, "join-hash")
        partner = self._states[1 - port]
        matches = 0
        bucket = partner.buckets.get(key)
        if bucket:
            s = element.interval.start
            e = element.interval.end
            flag = element.flag
            p_starts = partner.starts
            p_ends = partner.ends
            p_rows = partner.rows
            p_flags = partner.flags
            left = port == 0
            combiner = self.combiner
            concat = combiner is concat_payloads
            stage = self._stage
            for j in bucket:
                matches += 1
                ps = p_starts[j]
                pe = p_ends[j]
                s2 = ps if ps > s else s
                e2 = pe if pe < e else e
                if s2 < e2:
                    # Concatenation stays inline: this loop is hot.
                    if concat:
                        row = payload + p_rows[j] if left else p_rows[j] + payload
                    elif left:
                        row = combiner(payload, p_rows[j])
                    else:
                        row = combiner(p_rows[j], payload)
                    stage(
                        StreamElement(
                            row,
                            TimeInterval(s2, e2),
                            combine_flags(flag, p_flags[j]),
                        )
                    )
        if matches:
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

    def _on_run_tail(self, elements: List[StreamElement], port: int) -> None:
        """Probe a uniform-start run bucket-wise: hoisted bindings, aggregated metering."""
        partner = self._states[1 - port]
        own = self._states[port]
        tested = len(partner)
        key_of = self._keys[port]
        buckets_get = partner.buckets.get
        probe = self.selectivity_probe
        stage = self._stage
        insert = own.insert
        p_starts = partner.starts
        p_ends = partner.ends
        p_rows = partner.rows
        p_flags = partner.flags
        left = port == 0
        combiner = self.combiner
        concat = combiner is concat_payloads
        total_matches = 0
        total = 0
        for element in elements[1:]:
            payload = element.payload
            key = key_of(payload)
            matches = 0
            bucket = buckets_get(key)
            if bucket:
                s = element.interval.start
                e = element.interval.end
                flag = element.flag
                for j in bucket:
                    matches += 1
                    ps = p_starts[j]
                    pe = p_ends[j]
                    s2 = ps if ps > s else s
                    e2 = pe if pe < e else e
                    if s2 < e2:
                        if concat:
                            row = payload + p_rows[j] if left else p_rows[j] + payload
                        elif left:
                            row = combiner(payload, p_rows[j])
                        else:
                            row = combiner(p_rows[j], payload)
                        stage(
                            StreamElement(
                                row,
                                TimeInterval(s2, e2),
                                combine_flags(flag, p_flags[j]),
                            )
                        )
            total_matches += matches
            if probe is not None and tested:
                probe(tested, matches)
            insert(key, element.interval.start, element.interval.end, payload, element.flag)
            total += 1
        self.meter.charge(total, "join-hash")
        if total_matches:
            self.meter.charge(self.predicate_cost * total_matches, "join-predicate")

    def _on_watermark(self, watermark: Time) -> None:
        for side in (0, 1):
            self._states[side].expire(watermark)

    def _on_retention_change(self) -> None:
        for side in (0, 1):
            self._states[side].set_retention(self._retention)

    def _state_value_count(self) -> int:
        return self._states[0].value_count() + self._states[1].value_count()

    def state_elements(self) -> Iterator[StreamElement]:
        yield from self._states[0]
        yield from self._states[1]

    def state_of_port(self, port: int) -> List[StreamElement]:
        """The alive elements received on one input — used by Moving States."""
        self._check_port(port)
        return list(self._states[port])

    def seed_state(self, port: int, elements: List[StreamElement]) -> None:
        """Replace one input's state wholesale — used by Moving States."""
        self._check_port(port)
        self._states[port].replace(self._keys[port], elements)

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

    def absorb_state(self, port: int, elements: List[StreamElement]) -> None:
        """Merge elements into one input's state without clearing it —
        the fluid-migration per-range counterpart of :meth:`seed_state`.
        Seeded intervals may lie below the port watermark; they enter
        state directly (never ``process``), so ordering checks don't
        apply, and an already-expired straggler simply never intersects
        a live probe.
        """
        self._check_port(port)
        key_of = self._keys[port]
        insert = self._states[port].insert
        for element in elements:
            insert(
                key_of(element.payload),
                element.interval.start,
                element.interval.end,
                element.payload,
                element.flag,
            )

    def pair_matches(self, left: Payload, right: Payload) -> bool:
        """Whether two payloads satisfy the (equi-)join predicate."""
        return self._keys[0](left) == self._keys[1](right)


def equi_join(
    left_field: int,
    right_field: int,
    predicate_cost: int = 1,
    name: str = "",
) -> HashJoin:
    """Convenience constructor: hash equi-join on single payload positions."""
    return HashJoin(
        left_key=lambda payload: payload[left_field],
        right_key=lambda payload: payload[right_field],
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
