"""Migration strategy interface and lifecycle report.

A migration strategy is installed into a running :class:`QueryExecutor`
via :meth:`~repro.engine.executor.QueryExecutor.start_migration`.  From
that point the executor calls :meth:`MigrationStrategy.after_event` after
every processed input event, letting the strategy advance its state
machine; once :attr:`MigrationStrategy.finished` turns true the executor
collects the :class:`MigrationReport` and releases the strategy.

All strategies treat both plans as black boxes producing snapshot-
equivalent output — they only touch the routers at the box inputs and the
gate at its output.  :class:`MigrationStrategy` holds the three steps every
two-box strategy shares: the scope check against the plan verifier, the
splice of one two-sided router behind every input, and the hand-over to the
new box at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..engine.executor import MigrationError
from ..temporal.time import Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.plan_verifier import MigrationVerdict
    from ..engine.box import Box


class UnsupportedPlanError(RuntimeError):
    """A migration strategy was asked to migrate a plan outside its scope.

    Raised from ``begin`` — before anything is rewired — by Parallel
    Track, the reference-point optimization and fluid migration when the
    plan verifier's verdict for the strategy is not safe (the message
    carries its diagnostics).  GenMig with coalesce never raises this —
    it is the general strategy.
    """


class UnsoundPreferenceError(MigrationError):
    """:func:`select_strategy` was told to prefer a strategy the plan
    verifier refuses for this pair of boxes.

    Attributes:
        prefer: the preference that was refused.
        codes: the verifier codes behind the refusal (``PT001``,
            ``RP001``, ``FLM001`` ...), sorted, without repeats.
        verdict: the full :class:`~repro.analysis.plan_verifier.
            MigrationVerdict`.
    """

    def __init__(self, prefer: str, verdict: "MigrationVerdict") -> None:
        diagnostics = verdict.strategies[prefer].diagnostics
        self.prefer = prefer
        self.codes = tuple(sorted({d.code for d in diagnostics}))
        self.verdict = verdict
        super().__init__(
            f"strategy {prefer!r} is unsound for this migration "
            f"({', '.join(self.codes)}): "
            + "; ".join(d.message for d in diagnostics)
        )


@dataclass
class MigrationReport:
    """What happened during one migration."""

    strategy: str
    triggered_at: Time
    started_at: Time
    completed_at: Time
    t_split: Optional[Time] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> Time:
        """Migration duration in application time (start of parallel phase
        to completion)."""
        return self.completed_at - self.started_at


class MigrationStrategy:
    """Base class: lifecycle scaffolding shared by all strategies.

    :meth:`begin` must refuse an unsupported plan (:meth:`_check_scope`)
    *before* it monitors or rewires anything: a refusal then leaves the
    executor exactly as it was, and can never surface later from inside
    ``after_event``.
    """

    name = "abstract"

    #: The plan verifier's strategy verdict (``"parallel-track"``,
    #: ``"reference-point"``, ``"fluid"``) that bounds this strategy's
    #: scope; ``None`` for strategies that accept any pair of boxes.
    verdict_key: Optional[str] = None
    #: Run even on plans the verdict rejects (defect demonstrations).
    force = False

    #: Attached by :func:`select_strategy`: the static analysis that
    #: justified this strategy for the old/new box pair.
    selection_verdict: Optional["MigrationVerdict"] = None

    def __init__(self) -> None:
        self.finished = False
        self._report: Optional[MigrationReport] = None
        #: Enumerable transition points for the model checker
        #: (:mod:`repro.analysis.modelcheck`).  When set, every *enabled*
        #: phase transition (GenMig's arm/complete, Parallel Track's
        #: complete) consults the gate before firing: ``True`` fires the
        #: transition now, ``False`` defers it to a later ``after_event``
        #: tick.  ``None`` (production default) fires every enabled
        #: transition immediately — the historical behaviour, bit for bit.
        self.transition_gate: Optional[Callable[[str], bool]] = None

    def _gate(self, executor, transition: str) -> bool:
        """Whether an enabled ``transition`` may fire at this tick.

        At end of stream the gate is bypassed: deferral would leave the
        migration unfinished past the last event, which ``finish()``
        rejects — completion must stay reachable under every schedule.
        """
        if self.transition_gate is None:
            return True
        if getattr(executor, "at_end_of_stream", False):
            return True
        return self.transition_gate(transition)

    @property
    def phase(self) -> str:
        """The strategy's current lifecycle phase (coarse, for display)."""
        return "done" if self.finished else "active"

    def phase_state(self) -> Optional[tuple]:
        """A canonical, hashable digest of *all* migration-owned state.

        The model checker's schedule pruning folds this into the executor
        fingerprint: two runs may only be identified when their strategy
        state (phase, split time, auxiliary operator contents, buffers) is
        identical.  ``None`` — the base default — means "not enumerable";
        the explorer then disables pruning rather than risk unsound
        identification.
        """
        return None

    def begin(self, executor, new_box) -> None:
        """Install the strategy into a running executor."""
        raise NotImplementedError

    def _check_scope(self, old_box: "Box", new_box: "Box") -> None:
        """Refuse a pair outside the verifier's verdict for this strategy.

        Which operators are start-preserving, PT-safe or fluid-drainable
        is the plan verifier's knowledge alone; the strategies ask for its
        verdict instead of keeping their own operator lists.  The refusal
        names the first box that fails on its own, else the pair (a
        verdict only the pair carries, like fluid's at one range).
        """
        if self.verdict_key is None or self.force:
            return
        from ..analysis.plan_verifier import verify_migration

        pair = verify_migration(old_box, new_box)
        for target, strategies in (
            (old_box.label or "this box", pair.old.strategies),
            (new_box.label or "this box", pair.new.strategies),
            ("this pair", pair.strategies),
        ):
            verdict = strategies.get(self.verdict_key)
            if verdict is not None and not verdict.safe:
                raise UnsupportedPlanError(
                    f"{self.name} cannot migrate {target}: "
                    + "; ".join(str(d) for d in verdict.diagnostics)
                )

    def _splice(
        self,
        executor,
        old_box: "Box",
        new_box: "Box",
        make_router: Callable[[str], Any],
    ) -> Dict[str, Any]:
        """Put one two-sided router behind every input (Alg. 1, lines 6-8).

        ``make_router(source)`` builds the strategy's router (a subclass of
        :class:`~repro.core.split._TwoSidedRouter`); its old side feeds the
        old box's entry ports for that input, its new side the new box's.
        """
        routers = {}
        for source, input_router in executor.routers.items():
            router = make_router(source)
            router.meter = executor.meter
            for operator, port in old_box.taps.get(source, []):
                router.connect_old(operator, port)
            for operator, port in new_box.taps.get(source, []):
                router.connect_new(operator, port)
            input_router.retarget([(router, 0)])
            routers[source] = router
        return routers

    def _hand_over(self, executor, old_box: "Box", new_box: "Box") -> None:
        """Drop the old box and run the new one alone (the unsplice)."""
        old_box.sever()
        executor._install_box(new_box)
        self.finished = True

    def after_event(self, executor) -> None:
        """Advance the migration state machine after one input event."""
        raise NotImplementedError

    @property
    def batchable(self) -> bool:
        """Whether the executor may tick this strategy per input *batch*.

        The reference timing calls :meth:`after_event` after every element;
        a strategy returns ``True`` only while coarser, batch-boundary
        ticks cannot change what it would do — the executor consults this
        each batch, so the answer may vary with the strategy's phase.
        Defaults to ``False``: element-wise ticks are always sound.
        """
        return False

    def state_value_count(self) -> int:
        """Payload values held by migration-owned state (new box, buffers)."""
        return 0

    def report(self) -> MigrationReport:
        """The completed migration's report."""
        if self._report is None:
            raise RuntimeError(f"{self.name}: migration has not completed")
        return self._report


def select_strategy(
    old_box: "Box", new_box: "Box", prefer: str = "auto"
) -> MigrationStrategy:
    """Instantiate the migration strategy for an old/new box pair.

    The choice is a function of the two boxes alone: the plan verifier's
    :func:`~repro.analysis.plan_verifier.verify_migration` verdict.  The
    default policy (``prefer="auto"``) instantiates its ``recommended``
    strategy — the reference-point optimization when both boxes are
    start-preserving (it saves the coalesce operator's memory and CPU),
    GenMig with coalesce otherwise, which is always sound.  ``prefer`` may
    name a strategy explicitly (``"coalesce"``, ``"reference-point"``,
    ``"parallel-track"``, ``"fluid"``); a preference the verifier finds
    unsound for this pair raises :class:`UnsoundPreferenceError` with the
    verifier codes — nothing is chosen in its place.  Fluid is opt-in only:
    it beats GenMig on mid-migration latency for keyed join trees, but the
    auto policy stays on the paper's strategies.

    The verdict — including the per-strategy diagnostics that justify the
    choice — is attached to the returned strategy as
    ``selection_verdict``.
    """
    from ..analysis.plan_verifier import (
        FLUID,
        GENMIG,
        PARALLEL_TRACK,
        REFERENCE_POINT,
        verify_migration,
    )
    from .fluid import FluidMigration
    from .genmig import GenMig
    from .parallel_track import ParallelTrack
    from .reference_point import ReferencePointGenMig

    strategies = {
        GENMIG: GenMig,
        REFERENCE_POINT: ReferencePointGenMig,
        PARALLEL_TRACK: ParallelTrack,
        FLUID: FluidMigration,
    }
    if prefer not in ("auto", "coalesce", REFERENCE_POINT, PARALLEL_TRACK, FLUID):
        raise ValueError(f"unknown strategy preference {prefer!r}")
    verdict = verify_migration(old_box, new_box)
    if prefer == "auto":
        choice = verdict.recommended
    elif prefer == "coalesce":
        choice = GENMIG
    elif verdict.strategies[prefer].safe:
        choice = prefer
    else:
        raise UnsoundPreferenceError(prefer, verdict)
    strategy = strategies[choice]()
    strategy.selection_verdict = verdict
    return strategy
