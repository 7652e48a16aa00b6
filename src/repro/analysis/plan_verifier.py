"""The plan verifier: static analysis for snapshot-equivalence and
migration safety.

The paper's correctness results are *structural*: Parallel Track is sound
only for join-only boxes (Section 3, Note 1), the reference-point
optimization only for start-preserving plans (Section 4.5), GenMig with
coalesce for any plan built from snapshot-reducible operators (Theorem 1),
and ``T_split`` must exceed every time instant reachable inside the old
box (Lemma 1, Remark 3).  This module turns those facts into checkable
verdicts *before* a migration runs against live traffic:

* **schema propagation** over logical plans — every attribute reference is
  re-validated bottom-up, independently of the constructor checks, so a
  broken transformation rule or a hand-built subclass is caught as a
  diagnostic rather than a corrupt result;
* **per-operator classification** — snapshot-reducible / start-preserving
  / stateful-non-join, for logical nodes and physical operators alike;
* **migration-safety verdicts** per strategy (PT / RP / GenMig), each with
  a machine-readable diagnostic list.  The paper's Figure 2
  counter-example — duplicate elimination pushed below a join, then
  migrated with Parallel Track — surfaces here as a ``PT001`` lint
  failure naming the offending operator.

Verdicts are plain data (:class:`PlanVerdict`), consumed by
:func:`repro.core.strategy.select_strategy`, the autonomic controller,
the re-optimizer's candidate gate, the DOT renderer and the
``python -m repro.analysis`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..plans.expressions import Schema
from ..plans.logical import (
    AggregateNode,
    DifferenceNode,
    DistinctNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    Query,
    SelectNode,
    Source,
    UnionNode,
)
from ..temporal.time import MAX_TIME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.box import Box

# --------------------------------------------------------------------- #
# Diagnostics
# --------------------------------------------------------------------- #

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Canonical strategy names, matching ``select_strategy`` preferences.
PARALLEL_TRACK = "parallel-track"
REFERENCE_POINT = "reference-point"
GENMIG = "genmig"
FLUID = "fluid"
STRATEGIES = (PARALLEL_TRACK, REFERENCE_POINT, GENMIG, FLUID)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the verifier: severity, stable code, plain message.

    ``operator`` names the offending operator or plan node when the
    finding is local to one; codes are stable identifiers (``PT001``,
    ``SCH002``, ``WIN001``, ...) intended for machine consumption.
    """

    severity: str
    code: str
    message: str
    operator: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.operator}]" if self.operator else ""
        return f"{self.code} {self.severity}{where}: {self.message}"


# --------------------------------------------------------------------- #
# Operator classification
# --------------------------------------------------------------------- #

#: Classification kinds and their trait rows:
#: (start_preserving, stateful, pt_compatible, counts_for_join_only).
_KIND_TRAITS: Dict[str, Tuple[bool, bool, bool, bool]] = {
    # Sources and sigma/pi: no state, validity passes through.
    "source": (True, False, True, True),
    "stateless": (True, False, True, True),
    # Joins: stateful, but every result starts at a contributing input's
    # start, and PT's lineage flags partition their results correctly.
    "join": (True, True, True, True),
    # The order-restoring union: start-preserving and PT-flag-compatible,
    # but outside the join-only shapes the PT baseline is benchmarked on.
    "order-restoring": (True, True, True, False),
    # Duplicate elimination, aggregation, difference: results may start
    # mid-interval, and old/new lineage cannot partition them.
    "general": (False, True, False, False),
}


@dataclass(frozen=True)
class OperatorClassification:
    """The migration-relevant traits of one operator or plan node."""

    label: str
    kind: str
    start_preserving: bool
    stateful: bool
    pt_compatible: bool
    #: Whether the operator's state is partitioned by a key function —
    #: the precondition for fluid migration's per-key-range drain.
    keyed: bool = False

    @classmethod
    def of_kind(
        cls,
        label: str,
        kind: str,
        keyed: bool = False,
    ) -> "OperatorClassification":
        start_preserving, stateful, pt_compatible, _ = _KIND_TRAITS[kind]
        return cls(
            label=label,
            kind=kind,
            start_preserving=start_preserving,
            stateful=stateful,
            pt_compatible=pt_compatible,
            keyed=keyed,
        )

    @property
    def description(self) -> str:
        """Human-readable trait summary (used by the DOT annotations).

        Every classified operator is taken to be snapshot-reducible: the
        built-in ones are (Theorem 1's premise), and the verifier has no
        way to tell for any other.
        """
        traits = ["snapshot-reducible"]
        traits.append(
            "start-preserving" if self.start_preserving else "stateful-non-join"
        )
        if self.stateful and self.kind == "join":
            traits.append("join")
        return ", ".join(traits)


def classify_logical(node: LogicalPlan) -> OperatorClassification:
    """Classify one logical plan node (children are not inspected)."""
    label = _node_label(node)
    if isinstance(node, Source):
        return OperatorClassification.of_kind(label, "source")
    if isinstance(node, (SelectNode, ProjectNode)):
        return OperatorClassification.of_kind(label, "stateless")
    if isinstance(node, JoinNode):
        return OperatorClassification.of_kind(
            label, "join", keyed=node.equi_columns() is not None
        )
    if isinstance(node, UnionNode):
        return OperatorClassification.of_kind(label, "order-restoring")
    if isinstance(node, (DistinctNode, AggregateNode, DifferenceNode)):
        return OperatorClassification.of_kind(label, "general")
    # Unknown node types are treated as general (always sound for GenMig
    # as long as they are snapshot-reducible).
    return OperatorClassification.of_kind(label, "general")


def _checkpoint_state_diagnostic(
    op: object, classification: OperatorClassification
) -> Optional[Diagnostic]:
    """CKP001: stateful operators must drain and absorb symmetrically.

    Checkpoints, Moving States and fluid migration all move operator
    state through the one ``state_of_port`` / ``absorb_state`` pair —
    columnar state included, which the hooks materialise into elements
    and back.  A stateful operator that does not override the base
    ``state_of_port`` (which drains nothing) or lacks ``absorb_state``
    makes every plan that contains it non-checkpointable (the
    CheckpointManager refuses at runtime with a
    :class:`~repro.recovery.errors.RecoveryError`).  ``absorb_state`` is
    duck-typed on purpose: a base-class default would turn "not
    checkpointable" into silently lost state.  An order-restoring
    operator (the union) holds nothing per port — its staging heap
    travels in ``progress_state`` — so the base drain is its answer.
    """
    from ..operators.base import Operator

    if not classification.stateful:
        return None
    has_drain = getattr(type(op), "state_of_port", None) not in (
        None,
        Operator.state_of_port,
    )
    has_absorb = callable(getattr(op, "absorb_state", None))
    if has_drain and has_absorb:
        return None
    if classification.kind == "order-restoring" and not has_drain:
        return None
    if has_drain != has_absorb:
        missing = "absorb_state" if has_drain else "state_of_port"
        detail = f"has {'state_of_port' if has_drain else 'absorb_state'} but lacks {missing}"
    else:
        detail = "lacks both state_of_port and absorb_state"
    return Diagnostic(
        WARNING,
        "CKP001",
        f"stateful operator {detail}: its state cannot be drained and "
        "absorbed symmetrically, so plans containing it are not "
        "checkpointable (and Moving States cannot migrate it)",
        operator=classification.label,
    )


def classify_operator(op: object) -> Tuple[OperatorClassification, Optional[Diagnostic]]:
    """Classify one physical operator.

    The built-in operator types are recognised structurally.  Unknown
    operators degrade to ``general`` with a warning: that is always sound
    for GenMig provided the operator is snapshot-reducible, which only its
    author can promise.
    """
    from ..operators.aggregate import Aggregate
    from ..operators.base import StatelessOperator
    from ..operators.difference import Difference
    from ..operators.duplicate import DuplicateElimination
    from ..operators.filter import Select
    from ..operators.join import _JoinBase
    from ..operators.project import Project
    from ..operators.union import Union

    label = getattr(op, "name", type(op).__name__)
    if isinstance(op, _JoinBase):
        return (
            OperatorClassification.of_kind(
                label, "join", keyed=bool(getattr(op, "keyed_state", False))
            ),
            None,
        )
    if isinstance(op, (Select, Project)):
        return OperatorClassification.of_kind(label, "stateless"), None
    if isinstance(op, Union):
        return OperatorClassification.of_kind(label, "order-restoring"), None
    if isinstance(op, (DuplicateElimination, Aggregate, Difference)):
        return OperatorClassification.of_kind(label, "general"), None
    if isinstance(op, StatelessOperator):
        return OperatorClassification.of_kind(label, "stateless"), None
    return (
        OperatorClassification.of_kind(label, "general"),
        Diagnostic(
            WARNING,
            "CLS002",
            f"unknown operator type {type(op).__name__}: treated as general "
            "(GenMig-only)",
            operator=label,
        ),
    )


# --------------------------------------------------------------------- #
# Strategy verdicts
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StrategyVerdict:
    """Whether one migration strategy is sound for the analysed plan."""

    strategy: str
    safe: bool
    diagnostics: Tuple[Diagnostic, ...] = ()


def _strategy_verdicts(
    operators: Tuple[OperatorClassification, ...],
) -> Dict[str, StrategyVerdict]:
    pt_diags: List[Diagnostic] = []
    rp_diags: List[Diagnostic] = []
    flm_diags: List[Diagnostic] = []
    for cls in operators:
        if not cls.pt_compatible:
            pt_diags.append(
                Diagnostic(
                    ERROR,
                    "PT001",
                    f"operator {cls.label!r} is stateful but not a join: "
                    "Parallel Track's old/new lineage flags cannot partition "
                    "its results (paper Section 3, Figure 2 counter-example); "
                    "its output validities can cross the migration start and "
                    "collide with new-box results",
                    operator=cls.label,
                )
            )
        if not cls.start_preserving:
            rp_diags.append(
                Diagnostic(
                    ERROR,
                    "RP001",
                    f"operator {cls.label!r} is not start-preserving: its "
                    "results may start mid-interval, so the reference-point "
                    "filter at T_split would drop or duplicate snapshots "
                    "(paper Section 4.5); use GenMig with coalesce",
                    operator=cls.label,
                )
            )
        if cls.stateful and not cls.keyed:
            flm_diags.append(
                Diagnostic(
                    ERROR,
                    "FLM001",
                    f"operator {cls.label!r} is stateful but not keyed: fluid "
                    "migration drains state one key range at a time, which "
                    "requires every stateful operator to partition its state "
                    "by a key function (an equi-join); use GenMig",
                    operator=cls.label,
                )
            )
        if not cls.start_preserving:
            flm_diags.append(
                Diagnostic(
                    ERROR,
                    "FLM002",
                    f"operator {cls.label!r} is not start-preserving: fluid "
                    "migration's per-range handover assumes the old box has "
                    "already emitted every result derivable from pre-flip "
                    "elements of a range, which only holds when results start "
                    "at a contributing input's start; use GenMig",
                    operator=cls.label,
                )
            )
    return {
        PARALLEL_TRACK: StrategyVerdict(PARALLEL_TRACK, not pt_diags, tuple(pt_diags)),
        REFERENCE_POINT: StrategyVerdict(
            REFERENCE_POINT, not rp_diags, tuple(rp_diags)
        ),
        GENMIG: StrategyVerdict(GENMIG, True),
        FLUID: StrategyVerdict(FLUID, not flm_diags, tuple(flm_diags)),
    }


def _profile(operators: Tuple[OperatorClassification, ...]) -> str:
    """The three-way migration profile: ``"join-only"`` (Parallel Track's
    scope), ``"start-preserving"`` (the reference-point optimization's) or
    ``"general"`` (GenMig with coalesce)."""
    join_only = True
    start_preserving = True
    for cls in operators:
        if cls.kind == "source":
            continue
        if not _KIND_TRAITS[cls.kind][3]:
            join_only = False
        if not cls.start_preserving:
            start_preserving = False
    if join_only:
        return "join-only"
    if start_preserving:
        return "start-preserving"
    return "general"


# --------------------------------------------------------------------- #
# The verdict
# --------------------------------------------------------------------- #


@dataclass
class PlanVerdict:
    """Everything the verifier can say about one plan, box or query."""

    target: str
    profile: str
    operators: Tuple[OperatorClassification, ...]
    diagnostics: Tuple[Diagnostic, ...]
    strategies: Dict[str, StrategyVerdict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    def safe_strategies(self) -> Tuple[str, ...]:
        """The migration strategies sound for this plan, safest last."""
        return tuple(name for name in STRATEGIES if self.strategies[name].safe)

    def all_diagnostics(self) -> Tuple[Diagnostic, ...]:
        """Plan diagnostics plus every strategy verdict's diagnostics."""
        merged = list(self.diagnostics)
        for name in STRATEGIES:
            verdict = self.strategies.get(name)
            if verdict is not None:
                merged.extend(verdict.diagnostics)
        return tuple(merged)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable rendering (the CLI's ``--json`` output)."""
        return {
            "target": self.target,
            "profile": self.profile,
            "ok": self.ok,
            "operators": [
                {
                    "label": c.label,
                    "kind": c.kind,
                    "start_preserving": c.start_preserving,
                    "stateful": c.stateful,
                    "pt_compatible": c.pt_compatible,
                }
                for c in self.operators
            ],
            "diagnostics": [
                {
                    "severity": d.severity,
                    "code": d.code,
                    "message": d.message,
                    "operator": d.operator,
                }
                for d in self.all_diagnostics()
            ],
            "strategies": {
                name: verdict.safe for name, verdict in self.strategies.items()
            },
        }

    def report(self) -> str:
        """Human-readable multi-line report (the CLI's default output)."""
        lines = [f"plan: {self.target}", f"profile: {self.profile}"]
        lines.append("operators:")
        for cls in self.operators:
            lines.append(f"  {cls.label:<40} {cls.kind:<16} {cls.description}")
        lines.append("strategies:")
        for name in STRATEGIES:
            verdict = self.strategies.get(name)
            if verdict is None:
                continue
            state = "safe" if verdict.safe else "UNSAFE"
            lines.append(f"  {name:<16} {state}")
            for diag in verdict.diagnostics:
                lines.append(f"    {diag}")
        if self.diagnostics:
            lines.append("diagnostics:")
            for diag in self.diagnostics:
                lines.append(f"  {diag}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Logical-plan verification
# --------------------------------------------------------------------- #


def _node_label(node: LogicalPlan) -> str:
    """One-line label of a node without rendering its whole subtree."""
    if isinstance(node, Source):
        return node.name
    if isinstance(node, SelectNode):
        return f"select[{node.predicate!r}]"
    if isinstance(node, ProjectNode):
        return f"project[{', '.join(name for _, name in node.outputs)}]"
    if isinstance(node, JoinNode):
        condition = repr(node.condition) if node.condition is not None else "true"
        return f"join[{condition}]"
    if isinstance(node, DistinctNode):
        return "distinct"
    if isinstance(node, AggregateNode):
        aggregates = ", ".join(spec.output_name() for spec in node.aggregates)
        group = f" by {list(node.group_by)}" if node.group_by else ""
        return f"aggregate[{aggregates}{group}]"
    if isinstance(node, UnionNode):
        return "union"
    if isinstance(node, DifferenceNode):
        return "difference"
    return type(node).__name__


def _validate_schemas(plan: LogicalPlan, diagnostics: List[Diagnostic]) -> Schema:
    """Recompute schemas bottom-up, re-validating attribute references.

    Independent of the constructor checks on purpose: a transformation
    rule that rebuilds nodes incorrectly, or a subclass overriding
    ``schema``, is caught here instead of corrupting results downstream.
    """
    label = _node_label(plan)
    child_schemas = [_validate_schemas(child, diagnostics) for child in plan.children]

    def check_columns(columns: set, available: set, code: str, what: str) -> None:
        missing = columns - available
        if missing:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    code,
                    f"{what} references unknown columns {sorted(missing)} "
                    f"(available: {sorted(available)})",
                    operator=label,
                )
            )

    computed: Schema
    if isinstance(plan, Source):
        computed = plan.schema
    elif isinstance(plan, SelectNode):
        check_columns(
            plan.predicate.columns(), set(child_schemas[0]), "SCH002", "predicate"
        )
        computed = child_schemas[0]
    elif isinstance(plan, ProjectNode):
        available = set(child_schemas[0])
        for expression, _ in plan.outputs:
            check_columns(expression.columns(), available, "SCH003", "projection")
        computed = tuple(name for _, name in plan.outputs)
    elif isinstance(plan, JoinNode):
        overlap = set(child_schemas[0]) & set(child_schemas[1])
        if overlap:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    "SCH004",
                    f"join inputs share column names {sorted(overlap)}",
                    operator=label,
                )
            )
        if plan.condition is not None:
            check_columns(
                plan.condition.columns(),
                set(child_schemas[0]) | set(child_schemas[1]),
                "SCH005",
                "join condition",
            )
        computed = child_schemas[0] + child_schemas[1]
    elif isinstance(plan, AggregateNode):
        available = set(child_schemas[0])
        for spec in plan.aggregates:
            if spec.column is not None and spec.column not in available:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        "SCH006",
                        f"aggregate references unknown column {spec.column!r}",
                        operator=label,
                    )
                )
        check_columns(set(plan.group_by), available, "SCH006", "GROUP BY")
        computed = plan.group_by + tuple(spec.output_name() for spec in plan.aggregates)
    elif isinstance(plan, (UnionNode, DifferenceNode)):
        if len(child_schemas[0]) != len(child_schemas[1]):
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    "SCH007",
                    f"inputs have different arity: {child_schemas[0]} vs "
                    f"{child_schemas[1]}",
                    operator=label,
                )
            )
        computed = child_schemas[0]
    elif isinstance(plan, DistinctNode):
        computed = child_schemas[0]
    else:
        computed = plan.schema
    declared = plan.schema
    if tuple(declared) != tuple(computed):
        diagnostics.append(
            Diagnostic(
                ERROR,
                "SCH001",
                f"declared schema {list(declared)} does not match the schema "
                f"propagated from the children {list(computed)}",
                operator=label,
            )
        )
    return computed


def _collect_classifications(
    plan: LogicalPlan, out: List[OperatorClassification]
) -> None:
    out.append(classify_logical(plan))
    for child in plan.children:
        _collect_classifications(child, out)


def verify_plan(plan: LogicalPlan) -> PlanVerdict:
    """Statically verify one logical plan: schemas and migration safety."""
    diagnostics: List[Diagnostic] = []
    _validate_schemas(plan, diagnostics)
    classifications: List[OperatorClassification] = []
    _collect_classifications(plan, classifications)
    operators = tuple(classifications)
    return PlanVerdict(
        target=plan.signature(),
        profile=_profile(operators),
        operators=operators,
        diagnostics=tuple(diagnostics),
        strategies=_strategy_verdicts(operators),
    )


def verify_query(query: Query) -> PlanVerdict:
    """Verify a complete query: the plan plus its window metadata."""
    verdict = verify_plan(query.plan)
    diagnostics = list(verdict.diagnostics)
    missing = set(query.plan.sources()) - set(query.windows)
    if missing:
        diagnostics.append(
            Diagnostic(
                ERROR,
                "WIN001",
                f"no window declared for sources {sorted(missing)}: their "
                "state would never expire and T_split would be unreachable",
            )
        )
    for name, window in query.windows.items():
        if window >= MAX_TIME:
            diagnostics.append(
                Diagnostic(
                    WARNING,
                    "WIN002",
                    f"source {name!r} has an unbounded window: a GenMig "
                    "migration over it can never complete (the old box "
                    "never drains)",
                )
            )
    verdict.diagnostics = tuple(diagnostics)
    return verdict


# --------------------------------------------------------------------- #
# Physical-box verification
# --------------------------------------------------------------------- #


def verify_box(box: "Box") -> PlanVerdict:
    """Verify a physical box: wiring sanity plus migration safety."""
    diagnostics: List[Diagnostic] = []
    classifications: List[OperatorClassification] = []
    for op in box.operators:
        classification, diag = classify_operator(op)
        classifications.append(classification)
        if diag is not None:
            diagnostics.append(diag)
        ckp = _checkpoint_state_diagnostic(op, classification)
        if ckp is not None:
            diagnostics.append(ckp)

    # Wiring sanity: every input port of every operator must be fed by a
    # tap or an upstream subscription, exactly once.
    feeds: Dict[Tuple[int, int], int] = {}
    for ports in box.taps.values():
        for op, port in ports:
            feeds[(id(op), port)] = feeds.get((id(op), port), 0) + 1
    for op in box.operators:
        for downstream, port in getattr(op, "subscribers", []):
            feeds[(id(downstream), port)] = feeds.get((id(downstream), port), 0) + 1
    by_id = {id(op): op for op in box.operators}
    for op in box.operators:
        for port in range(getattr(op, "arity", 1)):
            count = feeds.get((id(op), port), 0)
            if count == 0 and box.taps:
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        "BOX002",
                        f"input port {port} receives no tap or upstream "
                        "subscription: the operator can never make progress "
                        "on it (its watermark stays at the origin, blocking "
                        "expiration downstream)",
                        operator=getattr(op, "name", type(op).__name__),
                    )
                )
            elif count > 1:
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        "BOX003",
                        f"input port {port} is fed by {count} upstreams: "
                        "interleaved feeds on one port break per-port "
                        "start-timestamp monotonicity",
                        operator=getattr(op, "name", type(op).__name__),
                    )
                )
    if id(box.root) not in by_id:
        diagnostics.append(
            Diagnostic(
                ERROR,
                "BOX001",
                f"root operator {getattr(box.root, 'name', box.root)!r} is "
                "not part of the box's operator list",
            )
        )
    operators = tuple(classifications)
    strategies = _strategy_verdicts(operators)

    # FLM003: fluid migration drains state through the tap operators, so
    # every tap must land on a keyed stateful operator's entry port — a
    # tap feeding anything else (a Select in front of the join, say) has
    # no per-key state to drain at the routing frontier.
    flm_box: List[Diagnostic] = []
    for ports in box.taps.values():
        for op, port in ports:
            if not getattr(op, "keyed_state", False):
                flm_box.append(
                    Diagnostic(
                        ERROR,
                        "FLM003",
                        f"tap feeds input port {port} of a non-keyed "
                        "operator: fluid migration can only hand over a key "
                        "range when the tap lands directly on keyed join "
                        "state (the range drain happens at the frontier)",
                        operator=getattr(op, "name", type(op).__name__),
                    )
                )
    # FLM004: a range handover replays staged results and re-derives
    # intermediate state *through* the stateless operators between the
    # joins, without running them — possible only for a single-input
    # operator whose pure ``evaluate`` works, i.e. one that states the
    # per-element ``_apply`` it is derived from.
    from ..operators.base import StatelessOperator

    for op, classification in zip(box.operators, classifications):
        apply = getattr(type(op), "_apply", StatelessOperator._apply)
        if not classification.stateful and (
            apply is StatelessOperator._apply or getattr(op, "arity", 1) != 1
        ):
            flm_box.append(
                Diagnostic(
                    ERROR,
                    "FLM004",
                    "stateless operator has no pure single-input evaluate() "
                    "hook: fluid migration cannot replay staged results or "
                    "seed state through it; use GenMig",
                    operator=classification.label,
                )
            )
    if flm_box:
        base = strategies[FLUID]
        strategies[FLUID] = StrategyVerdict(
            FLUID, False, base.diagnostics + tuple(flm_box)
        )

    return PlanVerdict(
        target=box.label or "box",
        profile=_profile(operators),
        operators=operators,
        diagnostics=tuple(diagnostics),
        strategies=strategies,
    )


# --------------------------------------------------------------------- #
# Migration verification (old/new box pairs)
# --------------------------------------------------------------------- #


@dataclass
class MigrationVerdict:
    """The combined analysis of an old/new box pair.

    ``recommended`` is the cheapest strategy sound for *both* boxes under
    the default policy (reference-point when both are start-preserving,
    GenMig with coalesce otherwise; Parallel Track is never recommended —
    it exists as a baseline) — the strategy ``select_strategy(old, new)``
    instantiates — and ``reason`` states why, as the controller logs it
    under ``strategy="auto"``.
    """

    old: PlanVerdict
    new: PlanVerdict
    strategies: Dict[str, StrategyVerdict]
    recommended: str
    reason: str

    @property
    def profiles(self) -> frozenset:
        return frozenset((self.old.profile, self.new.profile))


def verify_migration(old_box: "Box", new_box: "Box") -> MigrationVerdict:
    """Analyse an old/new box pair and recommend a sound strategy.

    The verdict is static — a function of the two boxes alone: a strategy
    is safe for the pair when it is safe for both boxes, and
    ``recommended`` is the reference-point optimization when that holds
    for it (§4.5), GenMig with coalesce otherwise (Theorem 1).  The
    bounded model checker (``python -m repro.analysis modelcheck``)
    certifies the strategies themselves on fixed scenarios; it is a
    build-time gate, not part of this verdict.
    """
    old = verify_box(old_box)
    new = verify_box(new_box)
    strategies: Dict[str, StrategyVerdict] = {}
    for name in STRATEGIES:
        safe = old.strategies[name].safe and new.strategies[name].safe
        diagnostics = old.strategies[name].diagnostics + new.strategies[name].diagnostics
        strategies[name] = StrategyVerdict(name, safe, diagnostics)

    if strategies[REFERENCE_POINT].safe:
        recommended = REFERENCE_POINT
        reason = (
            "both boxes are start-preserving: the reference-point "
            "optimization saves the coalesce operator's memory and CPU"
        )
    else:
        recommended = GENMIG
        offenders = sorted(
            {
                d.operator
                for d in strategies[REFERENCE_POINT].diagnostics
                if d.operator is not None
            }
        )
        reason = (
            f"non-start-preserving operators {offenders} require GenMig "
            "with coalesce (the general strategy)"
        )
    return MigrationVerdict(
        old=old, new=new, strategies=strategies, recommended=recommended, reason=reason
    )


# --------------------------------------------------------------------- #
# The Figure 2 counter-example, as data
# --------------------------------------------------------------------- #


def figure2_plans() -> Tuple[LogicalPlan, LogicalPlan]:
    """The paper's Figure 2 pair: ``distinct(A ⋈ B)`` and its push-down.

    The second plan — duplicate elimination pushed below the join — is the
    counter-example that breaks Parallel Track: its ``distinct`` operators
    are stateful non-joins, so :func:`verify_plan` rejects PT for it with
    a ``PT001`` diagnostic while accepting GenMig.
    """
    from ..optimizer.rules import push_down_distinct
    from ..plans.expressions import Comparison, Field

    original = DistinctNode(
        JoinNode(
            Source("A", ["x"]),
            Source("B", ["y"]),
            Comparison("=", Field("A.x"), Field("B.y")),
        )
    )
    return original, push_down_distinct(original)
