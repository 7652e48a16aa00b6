"""Fluid migration: per-key-range incremental state handover.

GenMig migrates a whole box at once: for a full window both plans process
*every* element, which is exactly the mid-migration throughput cliff the
hot-path benchmark shows.  Megaphone-style fluid migration removes the
cliff by migrating the keyed state one key range at a time behind a
*routing frontier*:

1. **Monitoring** — GenMig's, unchanged (:class:`FluidMigration` runs the
   :class:`~repro.core.genmig.GenMig` lifecycle): wait until every input
   has been seen (or the streams end), so the per-range split times can be
   derived from real watermarks.
2. **Arming** — partition the key domain into ``R`` hash ranges (the
   stable ``crc32(repr(key)) % R`` of :func:`range_of`) and splice one
   :class:`FrontierRouter` behind every input router.  The frontier routes
   each element by the range of its join key: not-yet-migrated ranges flow
   to the old box, migrated ranges to the new box.  Both box roots reach
   the output gate through one order-restoring 2-port operator (a plain
   :class:`~repro.operators.union.Union`): each root alone is in start
   order, the two together are not.
3. **Parallel phase** — every ``(w + b) / R`` chronons the next range is due:
   its per-range split time ``t_r = latest_watermark + w + b - EPSILON``
   is recorded (the same Lemma 1 bound GenMig uses for the whole box,
   applied to one range), the old box's state for exactly those keys is
   drained through the keyed ``extract_state_of_port`` hook, seeded into
   the new box bottom-up (the Moving States computation, merged in via
   ``absorb_state`` so previously migrated ranges keep their live state),
   and the frontier entry flips — once no input lags below what the old
   box has already purged (:func:`~repro.core.moving_states.seed_incomplete`).
   From that tick on the range's elements probe the new plan; the
   remaining ranges keep running undisturbed through the old one — both
   plans are fully live only for the single in-flight range.
4. **Completion** — once every range has flipped and the watermarks pass
   the last range's split time, nothing the old box ever staged can still
   be owed; the old box and then the merge are flushed (no-ops except at
   end-of-stream), the old box is severed and the new box installed.

Correctness rests on the keyed scope the ``FLM`` verifier checks enforce:
every stateful operator is a hash join on one equivalence class of keys,
so elements of different ranges never join, and per range the handover is
exactly a Moving States migration — the old box has already delivered
every result derivable from the drained (pre-flip) elements, and the
seeded state joins precisely the post-flip arrivals.
"""

from __future__ import annotations

import heapq
import zlib
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..operators.base import Operator, StatelessOperator
from ..operators.join import _JoinBase
from ..operators.union import Union
from ..temporal.element import Payload, StreamElement
from ..temporal.time import Time
from .genmig import GenMig
from .moving_states import _StateSeeder, seed_incomplete
from .split import Route, _TwoSidedRouter
from .strategy import UnsupportedPlanError


def range_of(key: Any, ranges: int) -> int:
    """The hash range of one join-key value: ``crc32(repr(key)) % ranges``.

    ``repr`` makes the assignment stable across processes and Python
    builds (unlike ``hash``, which is salted for strings), so a range
    schedule — and every model-checker trace built on it — replays
    identically.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % ranges


class FrontierRouter(_TwoSidedRouter):
    """Route each element old or new by the migration state of its key range.

    One instance sits behind each input router for the duration of a fluid
    migration.  Unlike GenMig's :class:`~repro.core.split.Split`, which
    partitions every element's validity interval, the frontier forwards
    each element *whole* to exactly one side — the decision is per key
    range, not per time instant — and promises the raw watermark to both
    sides, since both boxes stay live until completion.
    """

    _category = "frontier"

    def __init__(
        self,
        key_of: Callable[[Any], Any],
        range_of: Callable[[Any], int],
        migrated: Set[int],
        name: str = "",
    ) -> None:
        super().__init__(name or "frontier")
        self._key_of = key_of
        self._range_of = range_of
        #: Shared across all frontiers of one migration: flipping a range
        #: in the strategy flips it for every input at once.
        self._migrated = migrated

    def _route(self, start: Time, end: Time, row: Payload) -> Route:
        if self._range_of(self._key_of(row)) in self._migrated:
            return None, start
        return end, None


class FluidMigration(GenMig):
    """Migrate keyed join state one key range at a time.

    Runs GenMig's lifecycle with a :class:`FrontierRouter` behind every
    input and a plain order-restoring ``Union`` on top; what is fluid is the
    parallel phase, which hands the key ranges over one by one.

    Args:
        ranges: number of hash ranges ``R`` the key domain is partitioned
            into.  ``R = 1`` degenerates to a whole-box instant handover
            (a single Moving States step behind the frontier); larger
            ``R`` bounds each drain burst — and the window in which both
            plans are live — to ``1/R`` of the state.
        pace: chronons between consecutive range flips.  Defaults to
            ``(w + b) / R``: the whole handover then spans one Lemma 1
            horizon, the same application-time span GenMig keeps both
            plans fully live for.
    """

    name = "fluid"
    verdict_key = "fluid"

    def __init__(self, ranges: int = 8, pace: Optional[int] = None) -> None:
        super().__init__()
        if ranges < 1:
            raise ValueError(f"ranges must be >= 1, got {ranges}")
        self.ranges = ranges
        self._pace_override = pace
        #: Flipped range indices, shared with every frontier.
        self._migrated: Set[int] = set()
        #: Pure-function memo for :meth:`_range_of` — ``crc32(repr(key))``
        #: per element is the frontier's hot path; the key domain bounds
        #: the cache.  Derived data, deliberately absent from
        #: :meth:`phase_state`.
        self._range_cache: Dict[Any, int] = {}
        #: Flip schedule, fixed at the first tick after arming: range ``r``
        #: is due at ``_flip_at[r]``.
        self._flip_at: List[Time] = []
        #: Per flipped range: ``(range, flipped_at_clock, t_split)``.
        self.range_log: List[Tuple[int, Time, Time]] = []
        self._drained = 0
        self._seeded = 0

    # ------------------------------------------------------------------ #
    # What fluid plugs into the lifecycle
    # ------------------------------------------------------------------ #

    def _make_split(self, name: str) -> FrontierRouter:
        return FrontierRouter(
            key_of=self._key_extractor(name),
            range_of=self._range_of,
            migrated=self._migrated,
            name=f"frontier[{name}]",
        )

    def _make_merge(self) -> Operator:
        return Union(name="fluid-merge")

    def _tick(self, executor) -> None:
        """Flip every range that is due; complete once all have flipped.

        Deferring a due flip to a batch boundary (``batchable``) only
        means a few more elements of that range flow to the old box first
        — the old box still holds their state, so the later drain hands
        them over and the outputs are unchanged.
        """
        if not self._flip_at:
            # Range r is due once the integer clock reaches r (w + b) / R,
            # that is, its ceiling: the schedule stays in whole chronons.
            span = executor.global_window + executor.interval_bound
            pace = self._pace_override
            self._flip_at = [
                self._started_at
                + (r * pace if pace is not None else -(-r * span // self.ranges))
                for r in range(self.ranges)
            ]
        next_range = len(self._migrated)
        while next_range < self.ranges:
            due = (
                executor.clock >= self._flip_at[next_range]
                or executor.at_end_of_stream
            )
            if (
                not due
                or seed_incomplete(executor, self.old_box)
                or not self._gate(executor, f"flip-{next_range}")
            ):
                return
            self._migrate_range(executor, next_range)
            next_range = len(self._migrated)
        self._try_complete(executor)

    def _detach_output(self, executor) -> None:
        # Past the last range's split time nothing keyed is left and every
        # staged result has been released by watermark; at end-of-stream
        # the explicit flush delivers whatever the old box still owes.
        self.old_box.flush()
        super()._detach_output(executor)

    def _report_extra(self) -> Dict[str, Any]:
        return {
            "ranges": self.ranges,
            "range_log": [
                (index, str(at), str(t)) for index, at, t in self.range_log
            ],
            "drained": self._drained,
            "seeded": self._seeded,
        }

    def _digest_extra(self) -> tuple:
        """The flip schedule's parameters and progress."""
        return (tuple(self._flip_at), tuple(sorted(self._migrated)))

    def _range_of(self, key: Any) -> int:
        """The owning range of one join-key value (stable across runs)."""
        owner = self._range_cache.get(key)
        if owner is None:
            owner = self._range_cache[key] = range_of(key, self.ranges)
        return owner

    def _key_extractor(self, source: str) -> Callable[[Any], Any]:
        """The join-key extractor for one input's payloads.

        Taken from the first old-box tap port: the FLM scope guarantees a
        single key equivalence class, so every tap of the source extracts
        the same value.
        """
        operator, port = self.old_box.taps[source][0]
        return itemgetter(operator.key_fields[port])

    # ------------------------------------------------------------------ #
    # Handing one range over
    # ------------------------------------------------------------------ #

    def _migrate_range(self, executor, index: int) -> None:
        """Drain one range from the old box, seed it into the new box, flip.

        Within one tick no elements arrive between drain and flip, so the
        handover is atomic in application time: everything the old box
        staged for the range's pre-flip pairs is already owed through its
        watermarks, and the seeded state joins exactly the post-flip
        arrivals — a Moving States migration of one range.  The drain MUST
        complete before the frontier flips: the ``early-flip`` seeded bug
        of the model checker demonstrates what one tick of slack costs.
        """
        self._drain_range(executor, index)
        self._flip_range(executor, index)

    def _drain_range(self, executor, index: int) -> None:
        """Move one range's keyed state from the old box into the new box."""
        self._replay_staged(executor, index)
        in_range = lambda key, _r=index: self._range_of(key) == _r  # noqa: E731
        tap_source: Dict[Tuple[int, int], str] = {}
        for source, ports in self.old_box.taps.items():
            for operator, port in ports:
                tap_source[(id(operator), port)] = source
        alive: Dict[str, List[StreamElement]] = {
            source: [] for source in self.old_box.taps
        }
        for operator in self.old_box.operators:
            if not isinstance(operator, _JoinBase):
                continue
            for port in (0, 1):
                elements = operator.extract_state_of_port(port, in_range)
                source = tap_source.get((id(operator), port))
                if source is not None:
                    alive[source].extend(elements)
                    self._drained += len(elements)
                # Non-tap (intermediate) state of a flipped range is inert
                # — its keys never probe the old box again — so the
                # extraction above reclaims it; nothing to seed from it,
                # the seeder recomputes intermediate states bottom-up.
        self._seeded += _StateSeeder(self.new_box, alive, executor.meter).seed()

    def _replay_staged(self, executor, index: int) -> None:
        """Deliver the flipped range's staged intermediate results downstream.

        A result staged in an ordered-output heap has not probed downstream
        state yet — its start is still ahead of the operator's output
        watermark.  Continued execution would release it once the
        watermarks catch up, but by then the drain has removed the state it
        must join with, silently losing results (the divergence the
        ``fluid-joins`` model-check preset finds without this step; Moving
        States avoids it by flushing the whole box, which fluid cannot do
        while other ranges keep running through it).  Replaying performs
        the state-insert-and-probe half of the release only: it bypasses
        ``process``, so no watermark moves (later releases of other ranges
        carry smaller starts) and nothing reaches the gate early; results
        the probe produces stage in the downstream join's own heap and
        release by watermark, exactly as a normal delivery would.
        Root-staged results stay put — they have nothing left to probe and
        release in start order through the merge later.
        """
        old_box = self.old_box
        for _ in range(len(old_box.operators)):
            replayed = 0
            for operator in old_box.operators:
                heap = operator._heap
                if not heap or operator is old_box.root:
                    continue
                keep: List[tuple] = []
                move: List[Tuple[tuple, list]] = []
                for entry in heap:
                    landings = self._landings(operator, entry[-1])
                    if landings:
                        join, port, arrived = landings[0]
                        key = arrived.payload[join.key_fields[port]]
                        if self._range_of(key) == index:
                            move.append((entry, landings))
                            continue
                    keep.append(entry)
                if not move:
                    continue
                heap[:] = keep
                heapq.heapify(heap)
                for entry, landings in sorted(move, key=lambda m: m[0]):
                    operator._staged_values -= len(entry[-1].payload)
                    for join, port, element in landings:
                        join._on_element(element, port)
                replayed += len(move)
            if replayed:
                executor.meter.charge(replayed, "fluid-replay")
            else:
                return

    def _landings(
        self, operator: Operator, element: StreamElement
    ) -> List[Tuple[_JoinBase, int, StreamElement]]:
        """The join ports ``element``, emitted by ``operator``, would reach.

        Follows the subscriptions through any stateless operators in
        between, evaluating each through its pure ``evaluate`` hook (the
        FLM004 verifier check guarantees they have one), and returns one
        ``(join, port, element as it arrives there)`` per join port reached
        — none when a selection on the way drops it or it leaves the box
        through the root (it then stays staged, like a root-staged result).
        """
        landings: List[Tuple[_JoinBase, int, StreamElement]] = []
        if operator is self.old_box.root:
            return landings
        for downstream, port in operator.subscribers:
            if isinstance(downstream, _JoinBase):
                landings.append((downstream, port, element))
            elif isinstance(downstream, StatelessOperator):
                for passed in downstream.evaluate([element]):
                    landings.extend(self._landings(downstream, passed))
            else:  # pragma: no cover - begin() checked the FLM verdict
                raise UnsupportedPlanError(
                    f"cannot replay through {type(downstream).__name__}"
                )
        return landings

    def _flip_range(self, executor, index: int) -> None:
        """Flip the routing frontier for one range and record its bound.

        The bound is GenMig's ``T_split`` (the Lemma 1 horizon) taken at
        the flip; the last range's is the migration's completion time.
        """
        self._migrated.add(index)
        self.t_split = self._compute_t_split(executor)
        self.range_log.append((index, executor.clock, self.t_split))
