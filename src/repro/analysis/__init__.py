"""Static analysis for snapshot-equivalence and migration safety.

Three tools, one package:

* :mod:`~repro.analysis.plan_verifier` — walks logical plans and physical
  boxes, re-validates schemas, classifies every operator (snapshot-
  reducible / start-preserving / stateful-non-join), issues per-strategy
  migration-safety verdicts (PT / RP / GenMig), and derives the static
  ``T_split`` reachability bound from the window sizes;
* :mod:`~repro.analysis.sanitizer` — an opt-in runtime checker of the
  physical-stream invariants (interval well-formedness, watermark
  monotonicity, emission promises, batch run-purity, state accounting),
  hooked into the engine at zero cost when off;
* :mod:`~repro.analysis.lint` — AST-based project-specific lint rules for
  the engine code itself (no wall clocks, purge via expiry entry points,
  honest batch overrides), run locally and in CI;
* :mod:`~repro.analysis.modelcheck` / :mod:`~repro.analysis.races` — a
  small-scope exhaustive schedule explorer for the migration protocols
  (checked against a relational oracle) and a happens-before race
  detector for the transport / sharded layer.

Command line::

    python -m repro.analysis "SELECT ..." --source bids=item,price
    python -m repro.analysis modelcheck --all
    python -m repro.analysis.lint [paths]
"""

from .plan_verifier import (
    Diagnostic,
    MigrationVerdict,
    OperatorClassification,
    PlanVerdict,
    SplitBound,
    StrategyVerdict,
    classify_logical,
    classify_operator,
    figure2_plans,
    verify_box,
    verify_migration,
    verify_plan,
    verify_query,
)
from .modelcheck import (
    PRESETS,
    ModelCheckResult,
    RelationalOracle,
    Scenario,
    ScheduleViolation,
    build_scenario,
    check_scenario,
    seed_bug,
)
from .races import (
    SHARD_PRESETS,
    RecordingTransport,
    ShardScenario,
    build_shard_scenario,
    check_shard_scenario,
    seed_shard_bug,
)
from .sanitizer import (
    SanitizerViolation,
    StreamSanitizer,
    ensure_installed,
    install,
    sanitized,
    uninstall,
)
from .sharding import ShardingPlan, classify_sharding

__all__ = [
    "Diagnostic",
    "MigrationVerdict",
    "ModelCheckResult",
    "OperatorClassification",
    "PRESETS",
    "PlanVerdict",
    "RecordingTransport",
    "RelationalOracle",
    "SHARD_PRESETS",
    "SanitizerViolation",
    "Scenario",
    "ScheduleViolation",
    "ShardScenario",
    "ShardingPlan",
    "SplitBound",
    "StrategyVerdict",
    "StreamSanitizer",
    "build_scenario",
    "build_shard_scenario",
    "check_scenario",
    "check_shard_scenario",
    "classify_logical",
    "classify_sharding",
    "classify_operator",
    "ensure_installed",
    "figure2_plans",
    "install",
    "sanitized",
    "seed_bug",
    "seed_shard_bug",
    "uninstall",
    "verify_box",
    "verify_migration",
    "verify_plan",
    "verify_query",
]
