"""Small-scope exhaustive schedule exploration for migration protocols.

Plan migration is a concurrent protocol: source deliveries, the migration
trigger and the strategy's phase transitions (GenMig's arm/complete,
Parallel Track's completion scan) interleave, and the paper's correctness
claims (Theorem 1, the Figure 2 counter-example) quantify over *every*
interleaving.  Ordinary tests drive one schedule; this module drives the
real executor through **all** of them for a bounded scenario and checks
each schedule's output against the relational oracle of Definition 1 —
turning the paper's claims into exhaustively checked properties:

* every finite schedule is a sequence of *choices*: which enabled event
  fires next (one source's next element, or the migration trigger), and —
  through :attr:`~repro.core.strategy.MigrationStrategy.transition_gate` —
  whether an enabled phase transition fires at this tick or defers;
* the explorer enumerates schedules depth-first with prefix replay
  (classic stateless model checking): the first run takes default
  choices, records every choice point, and pushes each untaken
  alternative as a prefix to replay later;
* state pruning à la DPOR cuts commuting interleavings: after each free
  (non-replayed) choice the executor's
  :meth:`~repro.engine.executor.QueryExecutor.fingerprint` — operator
  state, watermarks, strategy phase state — plus the output-so-far and
  the remaining work form a key; a repeated key means the continuation
  is schedule-for-schedule identical to one already explored, so the
  schedule is abandoned and counted as pruned.  Pruning is disabled
  when an installed strategy is not enumerable (``phase_state() is
  None``) — soundness over speed;
* every completed schedule's output goes to the shared judge
  (:meth:`repro.analysis.oracle.RelationalOracle.judge`): snapshot by
  snapshot against the relational oracle (``MCK001`` on
  divergence) and, for every strategy but Parallel Track, whose
  end-of-migration burst interleaves by design, for non-decreasing start
  timestamps (``MCK004``).  Two schedules that both match the oracle
  are snapshot-equivalent to each other, so no pairwise check is needed.

A scenario is a migration case (:mod:`repro.analysis.cases`), the format
the test suite's migration harness runs: :func:`check_scenario` explores
any case dict and ignores its run settings (scheduler, batch size,
trigger), since it quantifies over them.  The bundled presets
(:data:`PRESETS`) are such cases and cover the paper's load-bearing
scenarios: the Figure 2 Parallel Track defect (``pt-figure2``, expected
to violate), GenMig on the same plan pair (``genmig-figure2``), and the
join-reordering scenarios for PT, the reference-point optimization and
fluid migration (``fluid-joins`` for the range handover, ``fluid-order``
for the delivery order of the two live roots).  :func:`seed_bug` swaps in
a deliberately broken strategy so CI can assert the checker fails loudly.

Command line::

    python -m repro.analysis modelcheck --all
    python -m repro.analysis modelcheck --preset pt-figure2 --budget 2000
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core import FluidMigration, GenMig
from ..engine.executor import QueryExecutor
from ..streams import CollectorSink, PhysicalStream
from ..temporal import StreamElement
from ..temporal.time import Time, half_before
from .cases import STRATEGIES, UNORDERED, boxes_of, plans_of, streams_of
from .oracle import RelationalOracle
from .plan_verifier import ERROR, INFO, WARNING, Diagnostic

#: Default schedule budget: generous for the bundled presets (which need
#: a few hundred schedules each post-pruning) yet a hard stop for
#: accidental state-space blowups.
DEFAULT_BUDGET = 5000

_PRUNED = object()


@dataclass(frozen=True)
class ScheduleViolation:
    """One schedule on which the checked property failed."""

    code: str
    message: str
    schedule: Tuple[str, ...]
    instant: Optional[Time] = None

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "schedule": list(self.schedule),
            "instant": self.instant,
        }


@dataclass
class ModelCheckResult:
    """The outcome of exhausting (or budget-capping) one scenario."""

    scenario: str
    strategy: str
    expect_violation: bool
    explored: int = 0
    pruned: int = 0
    complete: bool = True
    violations: List[ScheduleViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether the scenario's expectation held.

        A defect-demonstration scenario (``expect_violation``) passes when
        at least one schedule violates; an ordinary scenario passes when
        every explored schedule is clean *and* the exploration completed
        within budget.
        """
        if self.expect_violation:
            return bool(self.violations)
        return not self.violations and self.complete

    def diagnostics(self) -> List[Diagnostic]:
        """This result as diagnostics (MCK001, MCK003, MCK004), as the CLI prints them."""
        diags: List[Diagnostic] = []
        if self.expect_violation:
            if self.violations:
                diags.append(
                    Diagnostic(
                        INFO,
                        "MCK001",
                        f"scenario {self.scenario!r}: known defect reproduced "
                        f"on {len(self.violations)} of {self.explored} "
                        "explored schedules",
                        operator=self.scenario,
                    )
                )
            else:
                diags.append(
                    Diagnostic(
                        ERROR,
                        "MCK001",
                        f"scenario {self.scenario!r}: expected a snapshot "
                        f"violation but all {self.explored} explored "
                        "schedules matched the oracle",
                        operator=self.scenario,
                    )
                )
        else:
            for violation in self.violations[:5]:
                diags.append(
                    Diagnostic(
                        ERROR,
                        violation.code,
                        f"scenario {self.scenario!r}: {violation.message} "
                        f"[schedule {' '.join(violation.schedule)}]",
                        operator=self.scenario,
                    )
                )
            if not self.violations and self.complete:
                diags.append(
                    Diagnostic(
                        INFO,
                        "MCK001",
                        f"scenario {self.scenario!r}: certified clean on "
                        f"{self.explored} exhaustively explored schedules "
                        f"({self.pruned} pruned)",
                        operator=self.scenario,
                    )
                )
        if not self.complete:
            diags.append(
                Diagnostic(
                    WARNING,
                    "MCK003",
                    f"scenario {self.scenario!r}: schedule budget exhausted "
                    f"after {self.explored} explored + {self.pruned} pruned "
                    "schedules; the exploration is incomplete",
                    operator=self.scenario,
                )
            )
        return diags

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "expect_violation": self.expect_violation,
            "explored": self.explored,
            "pruned": self.pruned,
            "complete": self.complete,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }


# --------------------------------------------------------------------- #
# The explorer
# --------------------------------------------------------------------- #


class _ChoiceTape:
    """Prefix-replaying choice recorder for one schedule.

    Within the prefix, choices replay a previously scheduled path; past
    it, the tape takes alternative 0 and pushes every untaken alternative
    (prefix-so-far plus that alternative) onto the shared DFS frontier.
    Consults with a single alternative are forced moves, not choice
    points — they neither consume nor extend the tape.
    """

    def __init__(
        self, prefix: Tuple[int, ...], frontier: List[Tuple[int, ...]]
    ) -> None:
        self.prefix = prefix
        self.frontier = frontier
        self.trace: List[int] = []
        self.labels: List[str] = []

    @property
    def position(self) -> int:
        return len(self.trace)

    def choose(self, alternatives: int, label: str) -> int:
        if alternatives <= 1:
            return 0
        position = len(self.trace)
        if position < len(self.prefix):
            pick = self.prefix[position]
        else:
            pick = 0
            for alternative in range(1, alternatives):
                self.frontier.append(tuple(self.trace) + (alternative,))
        self.trace.append(pick)
        self.labels.append(f"{label}={pick}")
        return pick


def _element_identity(element: StreamElement) -> tuple:
    return (element.start, element.end, repr(element.payload))


def _run_schedule(case: dict, make_strategy, tape: _ChoiceTape, seen: set):
    """Drive one schedule of ``case`` to completion; returns output or
    ``_PRUNED``."""
    streams = streams_of(case)
    old_box, new_box = boxes_of(case)
    executor = QueryExecutor(
        sources={name: PhysicalStream(name=name) for name in streams},
        windows={name: case["window"] for name in streams},
        box=old_box,
        global_heartbeats=False,
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    strategy = make_strategy()
    strategy.transition_gate = (
        lambda transition: tape.choose(2, f"gate:{transition}") == 0
    )
    pending = {name: list(elements) for name, elements in streams.items()}
    order = sorted(pending)
    migrated = False
    while True:
        options: List[Tuple[str, Optional[str]]] = []
        for name in order:
            if pending[name]:
                options.append(("deliver", name))
        if not migrated:
            options.append(("migrate", None))
        if not options:
            break
        kind, name = options[tape.choose(len(options), "event")]
        if kind == "migrate":
            executor.start_migration(new_box, strategy)
            migrated = True
        else:
            executor.push(name, pending[name].pop(0))
        # State pruning, only strictly past the replayed prefix: aborting
        # mid-replay would orphan frontier entries scheduled downstream.
        if tape.position > len(tape.prefix):
            fingerprint = executor.fingerprint()
            if fingerprint is not None:
                key = (
                    fingerprint,
                    tuple(_element_identity(e) for e in sink.elements),
                    tuple((name, len(pending[name])) for name in order),
                    migrated,
                )
                if key in seen:
                    return _PRUNED
                seen.add(key)
    executor.finish()
    return list(sink.elements)


def explore(
    result: ModelCheckResult,
    budget: Optional[int],
    run_one: Callable[[_ChoiceTape, set], object],
    on_error: Callable[[Exception], Tuple[str, str]],
    judge: Callable[[object, Tuple[str, ...]], Iterable[ScheduleViolation]],
) -> ModelCheckResult:
    """Depth-first search over every schedule ``run_one`` can take.

    ``run_one(tape, seen)`` drives one schedule through the choice tape
    and returns its outcome, or ``_PRUNED`` when its state key is already
    in ``seen``.  An exception raised by the schedule is a violation whose
    ``(code, message)`` ``on_error`` names; every completed outcome goes to
    ``judge(outcome, schedule)``, which returns the violations it finds.
    ``budget`` caps the total number of schedules (explored + pruned);
    exceeding it marks the result incomplete (``MCK003``) instead of
    running away.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    frontier: List[Tuple[int, ...]] = [()]
    seen: set = set()
    while frontier:
        if result.explored + result.pruned >= budget:
            result.complete = False
            break
        tape = _ChoiceTape(frontier.pop(), frontier)
        try:
            outcome = run_one(tape, seen)
        except Exception as exc:
            result.explored += 1
            code, message = on_error(exc)
            result.violations.append(
                ScheduleViolation(code, message, tuple(tape.labels))
            )
            continue
        if outcome is _PRUNED:
            result.pruned += 1
            continue
        result.explored += 1
        result.violations.extend(judge(outcome, tuple(tape.labels)))
    return result


def _engine_error(exc: Exception) -> str:
    """The violation message of a schedule the engine aborted."""
    return f"engine error under this schedule: {type(exc).__name__}: {exc}"


def _name_of(case: dict) -> str:
    return case.get("name", f"{case['family']}-{case['strategy']}")


def check_scenario(case: dict, budget: Optional[int] = None) -> ModelCheckResult:
    """Exhaustively explore every schedule of ``case`` (:func:`explore`).

    Every delivery order, trigger point and phase-gate answer is a
    schedule, so the case's run settings (``scheduler``, ``batch_size``,
    ``batch_during_migration``, ``migrate_at``, ``and_back``) are ignored;
    the strategy is a name of :data:`~repro.analysis.cases.STRATEGIES` or
    of :data:`SEED_BUGS`.  Each schedule's output goes to
    :meth:`~repro.analysis.oracle.RelationalOracle.judge`: the relational
    oracle (``MCK001``) and — every strategy but Parallel Track — in-order
    delivery (``MCK004``).
    """
    strategy = case["strategy"]
    make_strategy = {**STRATEGIES, **SEED_BUGS}[strategy]
    plan = plans_of(case)[0]
    oracle = RelationalOracle(streams_of(case, windowed=True))
    check_order = strategy not in UNORDERED

    def on_error(exc: Exception) -> Tuple[str, str]:
        # A strict-gate sanitizer (REPRO_SANITIZE) stops the schedule at
        # the first out-of-order delivery: the order property.
        out_of_order = getattr(exc, "code", None) == "SAN009"
        return ("MCK004" if out_of_order else "MCK001"), _engine_error(exc)

    def judge_schedule(output, schedule: Tuple[str, ...]) -> List[ScheduleViolation]:
        return [
            ScheduleViolation(code, message, schedule, instant=instant)
            for code, message, instant in oracle.judge(plan, output, check_order)
        ]

    return explore(
        ModelCheckResult(
            scenario=_name_of(case),
            strategy=strategy,
            expect_violation=case.get("expect_violation", False),
        ),
        budget,
        lambda tape, seen: _run_schedule(case, make_strategy, tape, seen),
        on_error,
        judge_schedule,
    )


# --------------------------------------------------------------------- #
# Preset scenarios
# --------------------------------------------------------------------- #

#: The Figure 2 / Example 1 pair and data: ``distinct(A ⋈ B)`` and its
#: push-down over two partially overlapping windows of the same value, so
#: duplicate elimination must merge across the migration.
_FIGURE2 = {
    "family": "figure2",
    "rewrite": 0,
    "old_build": "hash",
    "new_build": "hash",
    "window": 100,
    "scheduler": "global",
    "batch_size": 1,
    "batch_during_migration": False,
    "and_back": False,
    "feeds": {"A": [["a", 50], ["a", 20]], "B": [["a", 20], ["a", 70]]},
    "migrate_at": 60,
}

#: The 3-way join reordering, ``(A ⋈ B) ⋈ C`` to ``A ⋈ (B ⋈ C)``.
_JOINS = {
    "family": "join-order",
    "rewrite": 3,
    "old_build": "hash",
    "new_build": "hash",
    "window": 20,
    "scheduler": "global",
    "batch_size": 1,
    "batch_during_migration": False,
    "and_back": False,
    "feeds": {"A": [["a", 5], ["a", 7]], "B": [["a", 8]], "C": [["a", 10]]},
    "migrate_at": 9,
}

#: Each preset is a whole case (:mod:`repro.analysis.cases`) that names and
#: describes itself and says whether it expects a violation.  The explorer
#: ignores its run settings; they are the one run the harness replays.
PRESETS = {
    case["name"]: case
    for case in (
        dict(
            _FIGURE2,
            name="pt-figure2",
            description=(
                "Parallel Track forced onto the Figure 2 distinct push-down: "
                "the paper's counter-example, expected to violate snapshot "
                "equivalence under (at least) the schedules that trigger the "
                "migration mid-stream"
            ),
            strategy="parallel-track-forced",
            expect_violation=True,
        ),
        dict(
            _FIGURE2,
            name="genmig-figure2",
            description=(
                "GenMig on the same Figure 2 plan pair: the general strategy "
                "must be snapshot-correct under every schedule"
            ),
            strategy="genmig",
        ),
        dict(
            _JOINS,
            name="pt-joins",
            description=(
                "Parallel Track on a 3-way join reordering (left-deep to "
                "right-deep): PT's declared-sound territory, checked under "
                "every schedule"
            ),
            strategy="parallel-track",
        ),
        dict(
            _JOINS,
            name="rp-joins",
            description=(
                "Reference-point GenMig on the 3-way join reordering: the "
                "coalesce-free optimization's drain/seed handoff under every "
                "schedule"
            ),
            strategy="genmig-rp",
        ),
        # Keys in both hash ranges of two: range_of('a', 2) == 0 and
        # range_of('b', 2) == 1, so the 'b' element crosses the frontier
        # while range 0 is in flight, and the late 'a' element probes
        # range 0's seeded state after its flip.
        dict(
            _JOINS,
            name="fluid-joins",
            description=(
                "Fluid migration on the 3-way join reordering with join keys "
                "in both hash ranges: the per-range drain/seed/flip handover "
                "behind the routing frontier, under every schedule"
            ),
            strategy="fluid-2",
            feeds={"A": [["a", 5], ["b", 1], ["a", 6]], "B": [["a", 8]], "C": [["a", 10]]},
        ),
        # One key, result starts 1 and 2 (A@0 ⋈ B@1 ⋈ C@0 and … B@2 …),
        # each owed once per C element: a schedule that migrates between
        # the two C deliveries leaves one pair with the old root and one
        # with the new.
        dict(
            _JOINS,
            name="fluid-order",
            description=(
                "Fluid migration with one key and two distinct result starts "
                "owed by both boxes at once: one watermark step makes the old "
                "and the new root release together, so delivery order rests "
                "on the merge between the roots and the gate"
            ),
            strategy="fluid-1",
            window=12,
            feeds={"A": [["a", 0]], "B": [["a", 1], ["a", 1]], "C": [["a", 0], ["a", 0]]},
            migrate_at=1,
        ),
    )
}


def build_scenario(name: str) -> dict:
    """A copy of the preset case ``name``.

    Test seam: the model-checker tests copy presets through it.
    """
    try:
        return dict(PRESETS[name])
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; presets: {', '.join(sorted(PRESETS))}"
        ) from None


# --------------------------------------------------------------------- #
# Seeded bugs (CI loud-failure checks)
# --------------------------------------------------------------------- #


class _EarlySplitGenMig(GenMig):
    """GenMig with a deliberately early ``T_split``.

    Undercuts Lemma 1's requirement that ``T_split`` exceed every time
    instant the old box can reference: state already inside the old box
    keeps validity beyond the split, so old- and new-box results collide
    — the checker must surface MCK001 on the schedules that trigger the
    migration after deliveries.
    """

    name = "genmig-early-split"

    def _compute_t_split(self, executor):
        latest = max(
            (
                wm
                for name, wm in executor.source_watermarks.items()
                if executor.source_seen[name]
            ),
            default=0,
        )
        return half_before(latest + executor.interval_bound)


class _EarlyFlipFluid(FluidMigration):
    """Fluid migration that flips the frontier *before* the range drain.

    The correct protocol drains the old box's state for a range and seeds
    the new box within the same tick the frontier flips; this bug flips
    first and lets the drain land one ``after_event`` tick late.  An
    element of the flipped range delivered in that window probes the new
    box's still-unseeded state, silently missing join results — the
    checker must surface MCK001 on the schedules that interleave a
    delivery into the gap.
    """

    name = "fluid-early-flip"

    def __init__(self) -> None:
        super().__init__(ranges=2)
        self._owed: List[int] = []

    def _migrate_range(self, executor, index: int) -> None:
        # BUG: frontier flips now, drain deferred to the next tick.
        self._flip_range(executor, index)
        self._owed.append(index)

    def after_event(self, executor) -> None:
        owed, self._owed = self._owed, []
        for index in owed:
            self._drain_range(executor, index)
        super().after_event(executor)


class _UnmergedRootsFluid(FluidMigration):
    """Fluid migration that attaches both roots straight to the gate.

    Each root delivers in start order, but nothing orders the two against
    each other: when one watermark step covers two distinct result starts
    the old root releases both before the new root releases its earlier
    one.  The output multiset stays right — only the order property
    (MCK004) can see it.
    """

    name = "fluid-unmerged-roots"

    def __init__(self) -> None:
        super().__init__(ranges=1)

    def _attach_output(self, executor) -> None:
        # BUG: no order-restoring merge between the roots and the gate.
        self.new_box.root.attach_sink(executor.gate)


#: Deliberate protocol bugs, injectable via ``--seed-bug``: name → a
#: factory of the broken strategy.
SEED_BUGS = {
    "early-split": _EarlySplitGenMig,
    "early-flip": _EarlyFlipFluid,
    "unmerged-roots": _UnmergedRootsFluid,
}

#: What each seeded bug breaks, for the seeded case's description.
_BUG_DETAILS = {
    "early-split": "early T_split",
    "early-flip": "frontier flip before range drain",
    "unmerged-roots": "both roots straight to the gate",
}


def seed_bug(case: dict, bug: str) -> dict:
    """``case`` with its strategy replaced by the seeded bug ``bug``.

    Whatever ``case`` expected of its own strategy, the seeded case
    expects every schedule clean, so a checker blind to the bug passes it
    and CI fails.
    """
    if bug not in SEED_BUGS:
        raise KeyError(f"unknown seeded bug {bug!r}; known: {', '.join(SEED_BUGS)}")
    return dict(
        case,
        name=f"{_name_of(case)}+{bug}",
        description=f"{case.get('description', _name_of(case))} [seeded bug: {_BUG_DETAILS[bug]}]",
        strategy=bug,
        expect_violation=False,
    )


# --------------------------------------------------------------------- #
# Command line (dispatched from ``python -m repro.analysis modelcheck``)
# --------------------------------------------------------------------- #


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis modelcheck",
        description=(
            "Exhaustively explore every schedule of bounded migration "
            "scenarios, checking snapshot equivalence against the "
            "relational oracle."
        ),
    )
    parser.add_argument(
        "--preset",
        action="append",
        default=[],
        metavar="NAME",
        help="scenario preset to check (repeatable)",
    )
    parser.add_argument(
        "--all", action="store_true", help="check every preset scenario"
    )
    parser.add_argument(
        "--list", action="store_true", help="list preset scenarios and exit"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"schedule budget per scenario (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--seed-bug",
        choices=list(SEED_BUGS),
        help="inject a deliberate protocol bug (CI loud-failure check)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list:
        for name in sorted(PRESETS):
            print(f"{name:18} {PRESETS[name]['description']}")
        return 0

    names = list(args.preset)
    if args.all or not names:
        names = sorted(PRESETS)

    results = []
    failed = False
    for name in names:
        if name not in PRESETS:
            print(f"error: unknown preset {name!r}", file=sys.stderr)
            return 2
        case = PRESETS[name]
        if args.seed_bug is not None:
            case = seed_bug(case, args.seed_bug)
        result = check_scenario(case, budget=args.budget)
        results.append(result)
        if not result.passed:
            failed = True
        if not args.json:
            status = "ok" if result.passed else "FAIL"
            print(
                f"{result.scenario:24} {status:4} "
                f"explored={result.explored} pruned={result.pruned} "
                f"violations={len(result.violations)}"
                + ("" if result.complete else " (budget exhausted)")
            )
            for diagnostic in result.diagnostics():
                print(f"  {diagnostic}")
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2, default=str))
    return 1 if failed else 0
