"""GenMig: the paper's general dynamic plan migration strategy (Section 4).

Lifecycle (Algorithm 1), realised over the executor's event loop:

1. **Monitoring** — wait until every input has delivered at least one
   element, keeping the most recent start timestamp ``t_Si`` per input
   (Remark 2: a per-input migration start makes GenMig independent of
   globally ordered scheduling).
2. **Arming** — compute ``T_split``, splice a :class:`~repro.core.split.
   Split` behind every input router and a :class:`~repro.core.coalesce.
   Coalesce` on top of both boxes, then let both plans run in parallel.
   ``T_split = max(t_Si) + w + b - EPSILON`` where ``w`` is the global
   window constraint and ``b`` bounds raw input interval lengths (1 chronon
   for ordinary timestamped inputs) — strictly greater than every time
   instant the old box can ever reference, yet below the first instant only
   the new box covers (Lemma 1, point 6, together with Remark 3).
3. **Parallel phase** — the split routes validity below ``T_split`` to the
   old box and the rest to the new box; coalesce merges the outputs.
4. **Completion** — once every input's watermark reaches ``T_split`` the
   splits have already signalled end-of-stream to the old box (draining
   it); the strategy tears down split, coalesce and the old box and
   connects the new box directly.

Correctness rests only on the two boxes being snapshot-equivalent black
boxes; no operator knowledge is required.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..engine.box import Box, operator_digest
from ..operators.base import Operator
from ..temporal.time import Time, half_before
from .coalesce import Coalesce
from .split import Split, _TwoSidedRouter
from .strategy import MigrationReport, MigrationStrategy


class GenMig(MigrationStrategy):
    """The general black-box migration strategy, coalesce variant.

    Also the one implementation of the two-box lifecycle — monitor → arm
    → parallel → complete — that the reference-point and fluid strategies
    run unchanged.  A variant overrides only what differs: the router
    behind each input (:meth:`_make_split`), the split time
    (:meth:`_compute_t_split`), how the two roots reach the gate
    (:meth:`_make_merge`, or the :meth:`_attach_output` /
    :meth:`_detach_output` pair), what the parallel phase does per tick
    (:meth:`_tick`) and what it adds to the report and the state digest.
    """

    name = "genmig"

    def __init__(self) -> None:
        super().__init__()
        self._phase = "idle"
        self._triggered_at: Time = 0
        self._started_at: Time = 0
        self.t_split: Optional[Time] = None
        self.old_box: Box  # both set by begin()
        self.new_box: Box
        #: The 2-port operator joining both roots in start order, if the
        #: variant uses one (reference point attaches sink adapters).
        self.merge: Optional[Operator] = None
        self.splits: Dict[str, _TwoSidedRouter] = {}

    @property
    def coalesce(self) -> Optional[Operator]:
        """The merge operator under its GenMig name."""
        return self.merge

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def begin(self, executor, new_box: Box) -> None:
        self._check_scope(executor.box, new_box)
        self._triggered_at = executor.clock
        self.old_box = executor.box
        self.new_box = new_box
        self._phase = "monitor"
        self._try_arm(executor)

    def after_event(self, executor) -> None:
        if self._phase == "monitor":
            self._try_arm(executor)
        if self._phase == "parallel":
            self._tick(executor)

    def _tick(self, executor) -> None:
        """One tick of the parallel phase: GenMig only waits to complete."""
        self._try_complete(executor)

    @property
    def phase(self) -> str:
        return self._phase

    def phase_state(self) -> Optional[tuple]:
        """Canonical digest of all migration-owned state (see base class).

        Covers the phase machine, the split time, and the contents of the
        routers, the merge and the new box — everything an identical-state
        pruning decision in the model checker must agree on.
        """
        aux: tuple = ()
        if self._phase == "parallel":
            aux = (
                self.new_box.state_digest(),
                operator_digest(self.merge) if self.merge is not None else None,
                tuple(
                    (name, operator_digest(split))
                    for name, split in sorted(self.splits.items())
                ),
            )
        return (
            (self.name, self._phase, self.t_split, self._started_at)
            + aux
            + self._digest_extra()
        )

    def _digest_extra(self) -> tuple:
        """Variant-owned state :meth:`phase_state` must also agree on."""
        return ()

    @property
    def batchable(self) -> bool:
        """Batch-boundary ticks are sound only in the parallel phase.

        While monitoring, ``T_split`` must be computed from the watermarks
        at the exact element where every input has been seen — a deferred
        tick would arm late and deprive the new box of elements.  Once the
        routers are installed, routing is purely data-driven and a tick
        merely checks progress, so a transition at a batch boundary
        changes timing but not output.
        """
        return self._phase == "parallel"

    def state_value_count(self) -> int:
        if self._phase != "parallel":
            return 0
        total = self.new_box.state_value_count()
        if self.merge is not None:
            total += self.merge.state_value_count()
        return total

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def _try_arm(self, executor) -> None:
        if not all(executor.source_seen.values()) and not executor.at_end_of_stream:
            # Algorithm 1 monitors until t_Si is set for every input; a
            # source that stays silent to the end of the stream can never
            # contribute old-box state, so end-of-stream arms regardless.
            return
        if not self._gate(executor, "arm"):
            return
        self._started_at = executor.clock
        self.t_split = self._compute_t_split(executor)
        self.splits = self._splice(
            executor, self.old_box, self.new_box, self._make_split
        )
        self._attach_output(executor)
        self._phase = "parallel"

    def _compute_t_split(self, executor) -> Time:
        """The standard split time (Algorithm 1, line 5; see module doc)."""
        return half_before(self._horizon(executor))

    @staticmethod
    def _horizon(executor) -> int:
        """``max(t_Si) + w + b``: the first chronon only the new box covers."""
        latest = max(
            (wm for name, wm in executor.source_watermarks.items()
             if executor.source_seen[name]),
            default=0,
        )
        return latest + executor.global_window + executor.interval_bound

    def _make_split(self, name: str) -> _TwoSidedRouter:
        return Split(self.t_split, name=f"split[{name}]")

    def _make_merge(self) -> Operator:
        return Coalesce(self.t_split)

    def _attach_output(self, executor) -> None:
        """Join both roots through the merge operator, merge to the gate.

        Each root alone delivers in start order; the two together do not,
        so nothing reaches the gate except through an order-restoring
        2-port operator (old root on port 0, new root on port 1).
        """
        merge = self.merge = self._make_merge()
        merge.meter = executor.meter
        self.old_box.root.detach_sink(executor.gate)
        self.old_box.root.subscribe(merge, 0)
        self.new_box.root.subscribe(merge, 1)
        merge.attach_sink(executor.gate)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _try_complete(self, executor) -> None:
        assert self.t_split is not None
        done = min(executor.source_watermarks.values()) >= self.t_split
        if not done and not executor.at_end_of_stream:
            return
        if not self._gate(executor, "complete"):
            return
        # All inputs have passed T_split (or ended): the routers have
        # already told the old box so, draining it by watermark.
        self._detach_output(executor)
        self._hand_over(executor, self.old_box, self.new_box)
        self._phase = "done"
        self._report = MigrationReport(
            strategy=self.name,
            triggered_at=self._triggered_at,
            started_at=self._started_at,
            completed_at=executor.clock,
            t_split=self.t_split,
            extra={
                **self._report_extra(),
                "order_violations": executor.gate.order_violations,
            },
        )

    def _detach_output(self, executor) -> None:
        """Deliver whatever the merge still holds, in start order."""
        if self.merge is not None:
            self.merge.flush()

    def _report_extra(self) -> Dict[str, Any]:
        assert isinstance(self.merge, Coalesce)
        return {"merged": self.merge.merged_count}


class ShortenedGenMig(GenMig):
    """GenMig with Optimization 2: shorten the migration duration.

    In addition to the start timestamps, the *end* timestamps of the input
    streams are monitored (the executor provides them as metadata); the
    maximum end timestamp ever seen bounds every time instant the old box
    can reference, so ``T_split`` may be set just below it.  The gain is
    significant when the migrated box consumes intermediate streams whose
    intervals are much shorter than the window (the paper: "if the plan to
    be optimized is not close to window operators"); for a box fed directly
    by window operators the two choices coincide.
    """

    name = "genmig-short"

    def _compute_t_split(self, executor) -> Time:
        # Time instants lie strictly below an (integer) end timestamp, so
        # the half chronon before it stays above every instant in the old
        # box.  Taking the min first never asks for the half chronon
        # before an unbounded end (MAX_TIME), which has none.  An arm at
        # end of stream with no input seen has max_end 0 and an empty old
        # box; the first half chronon serves.
        max_end = max(executor.source_max_ends.values())
        return half_before(max(1, min(self._horizon(executor), max_end)))
