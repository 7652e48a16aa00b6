"""Static analysis for snapshot-equivalence and migration safety.

Five modules, one package:

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
* :mod:`~repro.analysis.modelcheck` — a small-scope exhaustive schedule
  explorer for the migration protocols;
* :mod:`~repro.analysis.oracle` — the specification both the model
  checker and the test suite judge migrations by: the relational oracle
  of Definition 1 and its ``judge`` (divergence and start order).

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
    Scenario,
    ScheduleViolation,
    build_scenario,
    check_scenario,
    seed_bug,
)
from .oracle import RelationalOracle
from .sanitizer import (
    SanitizerViolation,
    StreamSanitizer,
    sanitized,
)

__all__ = [
    "Diagnostic",
    "MigrationVerdict",
    "ModelCheckResult",
    "OperatorClassification",
    "PRESETS",
    "PlanVerdict",
    "RelationalOracle",
    "SanitizerViolation",
    "Scenario",
    "ScheduleViolation",
    "StrategyVerdict",
    "StreamSanitizer",
    "build_scenario",
    "check_scenario",
    "classify_logical",
    "classify_operator",
    "figure2_plans",
    "sanitized",
    "seed_bug",
    "verify_box",
    "verify_migration",
    "verify_plan",
    "verify_query",
]
