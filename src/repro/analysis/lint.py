"""Project-specific AST lint rules for the engine code itself.

Generic linters cannot know this codebase's temporal contract, so these
rules are enforced here with the stdlib ``ast`` module (no third-party
dependency — ``ruff``/``mypy`` run additionally in CI):

``RLB001``
    No wall-clock reads under ``engine/``, ``operators/`` or
    ``recovery/``.  The executor is a deterministic application-time
    simulator (the paper's sufficient-resources assumption, Section 4.4);
    a single ``time.time()`` in an operator makes runs irreproducible and
    couples snapshots to the host clock — and a wall clock in checkpoint
    or replay code would make recovery itself nondeterministic.

``RLB002``
    A class overriding ``_on_watermark`` must purge through an expiry
    entry point (``expire``/``expire_before``/``evict``/``evict_until``/
    ``drain``, or the aggregate's ``_sweep`` and the difference's
    ``_purge``) somewhere in its body.  Hand-rolled purge loops bypass the
    expiry index and the incremental state accounting, which the memory
    metrics and migration-progress checks are built on.

(The third rule policed the stateful run-tail hook and the fourth the
inputs of the operator-fusion kernel compiler; both were retired with
what they guarded, and the numbers are not reused.)

``RLB005``
    Code outside ``temporal/`` must not reach into a batch's private
    slots (``_starts``/``_ends``/``_rows``/``_flags``/``_cached``/
    ``_uniform``) — only the ``Batch`` read API (``elements``/``starts``/
    ``ends``/``rows``/``flags``/``runs``) is stable.  Direct pokes bypass
    the lazily built views and would silently desynchronise the columns
    from the boxed-element view.

``RLB006``
    Code under ``recovery/`` must not construct physical operators
    directly — a restored plan must come out of ``PhysicalBuilder`` (or
    the service registry, which delegates to it) so it is structurally
    identical to the plan the snapshot was taken from.  A hand-built
    operator would bypass the builder's join choice and the verifier,
    silently breaking the restore-time plan match.

``RLB007``
    No module may import process or thread primitives
    (``multiprocessing``, ``threading``, ``concurrent.futures``,
    ``subprocess``, ``os.fork``/``os.pipe``/``os.exec*``).  Every query
    runs on one deterministic single-threaded executor; a stray
    ``Process``/``Thread`` would smuggle scheduling nondeterminism past
    the snapshot-equivalence oracle.

(The eighth rule policed the sharded router's worker wire protocol; it
was retired with partition-parallel execution, and the number is not
reused.)

``RLB009``
    No module-level mutable literals (``[]``/``{}``/``list()``/
    ``dict()``/``set()``) and no ``global`` statements under
    ``engine/`` or ``operators/`` (the conventional ``__all__``
    excepted).  Module state is shared across every executor in the
    process: the model checker replays thousands of schedules per
    process, so a module-level cache, registry or switch would leak
    state between runs.  Use immutable constants (tuples,
    ``frozenset``) or instance state; the one process-wide switch,
    ``operators.base.SANITIZER``, is set by attribute from
    ``analysis/``.

``RLB010``
    A ``StatelessOperator`` subclass (``Router`` is one) must not
    override ``_on_heartbeat``, ``_on_watermark`` or
    ``_output_watermark``, nor pass ``ordered_output=True``.  Stateless
    operators move progress with a relay — set the marks, forward the
    heartbeat — that never calls those hooks and never looks at the
    staging heap, so such an override would be dead code that *looks*
    live.  An operator that needs one of them holds state or delays its
    output: derive it from ``Operator`` (as ``CountWindow`` does).
    Outside ``operators/base.py`` such a subclass must not define
    ``process`` or ``process_batch`` nor touch ``_watermarks`` either:
    the stateless run protocol (port check, sanitizer, order check,
    watermark, charge, forward, relay) is written once in
    ``StatelessOperator``, and a second copy is where the batch path
    and the element path drift apart.

``RLB011``
    ``fractions`` is importable only by ``recovery/snapshot.py``, whose
    payload codec round-trips rational values.  Sub-chronon time is the
    half-chronon ``float`` :func:`~repro.temporal.time.half_before`
    builds; comparing an ``int`` with a rational costs about ten ``int <
    float`` comparisons, and a rational that reaches a split time, a
    heartbeat or a staged-heap key pays that on every migrating element.

Run locally or in CI::

    PYTHONPATH=src python -m repro.analysis.lint [paths...] [--format github]

Exit status is 1 when any finding is reported.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Expiry entry points recognised by RLB002.
PURGE_APIS = frozenset(
    {"expire", "expire_before", "evict", "evict_until", "drain", "_sweep", "_purge"}
)

#: (module, attribute) pairs whose call is a wall-clock read (RLB001).
WALL_CLOCKS = frozenset(
    {
        ("time", "time"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "today"),
        ("datetime", "utcnow"),
    }
)

#: Directories (path components) in which RLB001 applies.
WALL_CLOCK_SCOPE = ("engine", "operators", "recovery")

#: Watermark-protocol hooks the stateless relay never calls (RLB010).
RELAY_BYPASSED_HOOKS = ("_on_heartbeat", "_on_watermark", "_output_watermark")

#: Entry points of the run protocol ``StatelessOperator`` writes once
#: (RLB010), and the one module allowed to define them for it.
RUN_PROTOCOL_ENTRY_POINTS = ("process", "process_batch")
RUN_PROTOCOL_MODULE = ("operators", "base.py")

#: Private slots of ``Batch`` (its two views and the uniform flag) that
#: belong to the temporal layer (RLB005); everything else goes through
#: the read API.
COLUMN_INTERNALS = frozenset(
    {"_starts", "_ends", "_rows", "_flags", "_cached", "_uniform"}
)

#: Directory (path component) exempt from RLB005: the layer that owns
#: the batch layout.
COLUMN_SCOPE_EXEMPT = ("temporal",)

#: Physical operator classes recovery code must not construct (RLB006);
#: plan construction is ``PhysicalBuilder``'s monopoly.
OPERATOR_CLASSES = frozenset(
    {
        "Aggregate",
        "Coalesce",
        "CountWindow",
        "Difference",
        "DuplicateElimination",
        "HashJoin",
        "NestedLoopsJoin",
        "NowWindow",
        "Project",
        "Router",
        "Select",
        "Split",
        "TimeWindow",
        "UnboundedWindow",
        "Union",
    }
)

#: Directory (path component) in which RLB006 applies.
RECOVERY_SCOPE = ("recovery",)

#: Modules whose import is a process/thread primitive (RLB007).
PROCESS_MODULES = frozenset(
    {"multiprocessing", "threading", "concurrent.futures", "subprocess", "_thread"}
)

#: ``os`` attributes that spawn processes or raw pipes (RLB007); plain
#: ``os.environ``/``os.path`` use stays legal everywhere.
PROCESS_OS_ATTRS = frozenset(
    {"fork", "forkpty", "pipe", "pipe2", "popen", "posix_spawn", "posix_spawnp"}
    | {f"exec{s}" for s in ("l", "le", "lp", "lpe", "v", "ve", "vp", "vpe")}
    | {f"spawn{s}" for s in ("l", "le", "lp", "lpe", "v", "ve", "vp", "vpe")}
)

#: Directories (path components) in which RLB009 applies.
MUTABLE_GLOBAL_SCOPE = ("engine", "operators")

#: Module-level names RLB009 never flags.
MUTABLE_GLOBAL_EXEMPT = frozenset({"__all__"})

#: The one module allowed to import ``fractions`` (RLB011): the snapshot
#: codec, whose payloads may hold any codec type.
FRACTIONS_MODULE = ("recovery", "snapshot.py")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }

    def github_annotation(self) -> str:
        """GitHub Actions workflow-command form (``--format github``)."""
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (
            f"::error file={self.path},line={self.line},"
            f"title={self.code}::{message}"
        )


# --------------------------------------------------------------------- #
# Per-module facts
# --------------------------------------------------------------------- #


@dataclass
class _ClassFacts:
    """What one class definition tells the rules."""

    name: str
    line: int
    bases: Tuple[str, ...]
    methods: Dict[str, int]  # name -> line of the definition
    watermark_def: Optional[ast.FunctionDef]
    calls_purge_api: bool
    ordered_output_line: Optional[int]  # where ``ordered_output=True`` is passed
    watermarks_line: Optional[int]  # first ``._watermarks`` access


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scan_class(node: ast.ClassDef) -> _ClassFacts:
    methods: Dict[str, int] = {}
    watermark_def: Optional[ast.FunctionDef] = None
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = item.lineno
            if item.name == "_on_watermark" and isinstance(item, ast.FunctionDef):
                watermark_def = item
    calls_purge = False
    ordered_output_line: Optional[int] = None
    watermarks_line: Optional[int] = None
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "_watermarks":
            if watermarks_line is None or sub.lineno < watermarks_line:
                watermarks_line = sub.lineno
        if isinstance(sub, ast.Call):
            callee = sub.func
            name = None
            if isinstance(callee, ast.Attribute):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            if name in PURGE_APIS:
                calls_purge = True
            for keyword in sub.keywords:
                if (
                    keyword.arg == "ordered_output"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    ordered_output_line = sub.lineno
    return _ClassFacts(
        name=node.name,
        line=node.lineno,
        bases=tuple(b for b in (_base_name(base) for base in node.bases) if b),
        methods=methods,
        watermark_def=watermark_def,
        calls_purge_api=calls_purge,
        ordered_output_line=ordered_output_line,
        watermarks_line=watermarks_line,
    )


def _wall_clock_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    #: local alias → (module, attribute) from ``from time import monotonic``.
    aliased: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("time", "datetime"):
            for alias in node.names:
                aliased[alias.asname or alias.name] = (node.module, alias.name)
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        hit: Optional[Tuple[str, str]] = None
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            candidate = (callee.value.id, callee.attr)
            if candidate in WALL_CLOCKS:
                hit = candidate
        elif isinstance(callee, ast.Name) and callee.id in aliased:
            candidate = aliased[callee.id]
            if candidate in WALL_CLOCKS:
                hit = candidate
        if hit is not None:
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB001",
                    f"wall-clock read {hit[0]}.{hit[1]}() in engine/operator "
                    "code: the executor is a deterministic application-time "
                    "simulator; derive time from stream elements instead",
                )
            )
    return findings


def _operator_construction_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    """RLB006: recovery code must not construct operators directly.

    Flags any call whose callee name (plain or attribute) is a physical
    operator class.  Name-based, like the rest of this linter: the
    operator class names are unique in the codebase, and a false match on
    a same-named helper is the conservative direction for recovery code.
    """
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = None
        if isinstance(callee, ast.Attribute):
            name = callee.attr
        elif isinstance(callee, ast.Name):
            name = callee.id
        if name in OPERATOR_CLASSES:
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB006",
                    f"recovery code constructs operator {name}() directly: "
                    "restored plans must come out of PhysicalBuilder so "
                    "they are structurally identical to the checkpointed "
                    "plan (the join choice included)",
                )
            )
    return findings


def _column_internal_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    """RLB005: no batch-internal attribute access outside ``temporal/``.

    Any ``x._starts``-style read or write is flagged; the rule is
    attribute-name based (like the rest of this linter) because the
    batch slots are deliberately named to collide with nothing else in
    the codebase.
    """
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in COLUMN_INTERNALS:
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB005",
                    f"direct access to column internal {node.attr!r} outside "
                    "temporal/: use the Batch read API (elements/starts/ends/"
                    "rows/flags/runs) — poking the slots bypasses the "
                    "lazily built views and can desynchronise the "
                    "columns from the boxed-element view",
                )
            )
    return findings


def _process_primitive_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    """RLB007: no module imports process/thread primitives.

    Flags ``import multiprocessing``-style statements (module or
    ``from``-import, submodules included) and ``os.fork()``-family calls.
    Import detection is static and unconditional — even an import inside
    a function body or ``TYPE_CHECKING`` block is flagged, because the
    capability itself is what the rule keeps out.
    """

    def module_hit(module: str) -> Optional[str]:
        for banned in PROCESS_MODULES:
            if module == banned or module.startswith(banned + "."):
                return banned
        return None

    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        hit: Optional[str] = None
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                hit = module_hit(alias.name)
                if hit:
                    break
        elif isinstance(node, ast.ImportFrom) and node.module:
            hit = module_hit(node.module)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
            and node.func.attr in PROCESS_OS_ATTRS
        ):
            hit = f"os.{node.func.attr}"
        if hit is not None:
            findings.append(
                LintFinding(
                    path,
                    line,
                    "RLB007",
                    f"process primitive {hit!r}: every query runs on one "
                    "deterministic single-threaded executor, and a stray "
                    "process/thread would smuggle scheduling nondeterminism "
                    "past the snapshot-equivalence oracle",
                )
            )
    return findings


def _mutable_global_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    """RLB009: no mutable module state in engine/operator code.

    Flags top-level assignments whose value is a list/dict/set literal or
    a bare ``list()``/``dict()``/``set()`` call, and every ``global``
    statement (a function rebinding a module name is a process-wide
    switch).  Module state is shared by every executor in the process —
    schedule replays would leak state through it.  The one process-wide
    switch, ``operators.base.SANITIZER``, is set by attribute from the
    analysis layer, outside this scope.
    """
    findings: List[LintFinding] = []
    if not isinstance(tree, ast.Module):
        return findings
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB009",
                    f"global statement rebinding {', '.join(node.names)} in "
                    "engine/operator code: a module-level switch is shared "
                    "across every executor and schedule replay in the "
                    "process — use instance state",
                )
            )
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or all(name in MUTABLE_GLOBAL_EXEMPT for name in names):
            continue
        mutable: Optional[str] = None
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            mutable = type(value).__name__.lower()
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
        ):
            mutable = f"{value.func.id}()"
        if mutable is not None:
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB009",
                    f"module-level mutable {mutable} {names[0]!r} in engine/"
                    "operator code: module state is shared across every "
                    "executor and schedule replay in the process — use a "
                    "tuple/frozenset constant or instance state",
                )
            )
    return findings


def _fractions_import_findings(tree: ast.AST, path: str) -> List[LintFinding]:
    """RLB011: ``fractions`` is imported only by the snapshot codec."""
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "fractions" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "fractions"
        else:
            continue
        if hit:
            findings.append(
                LintFinding(
                    path,
                    node.lineno,
                    "RLB011",
                    "fractions imported outside recovery/snapshot.py: "
                    "sub-chronon time is the half-chronon float that "
                    "temporal.time.half_before builds, and a rational on "
                    "the migration path costs ~10x per comparison",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# The linter
# --------------------------------------------------------------------- #


class Linter:
    """Two-pass linter: collect class facts everywhere, then apply rules."""

    def __init__(self) -> None:
        self._modules: List[Tuple[str, ast.AST, List[_ClassFacts]]] = []
        self._hierarchy: Dict[str, Tuple[str, ...]] = {}

    def add_source(self, code: str, path: str) -> None:
        tree = ast.parse(code, filename=path)
        facts = [
            _scan_class(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        for cls in facts:
            self._hierarchy[cls.name] = cls.bases
        self._modules.append((path, tree, facts))

    def add_path(self, path: Path) -> None:
        self.add_source(path.read_text(encoding="utf-8"), str(path))

    def _derives_from(
        self, name: str, root: str, seen: Optional[Set[str]] = None
    ) -> bool:
        """Whether ``name`` is ``root`` or transitively derives from it.

        Resolution is by class *name* across all scanned modules — sound
        for this codebase's flat namespace, and the conservative direction
        for a linter (an unknown base simply does not match).
        """
        if name == root:
            return True
        seen = seen or set()
        if name in seen:
            return False
        seen.add(name)
        return any(
            self._derives_from(base, root, seen)
            for base in self._hierarchy.get(name, ())
        )

    def run(self) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for path, tree, classes in self._modules:
            parts = Path(path).parts
            if any(scope in parts for scope in WALL_CLOCK_SCOPE):
                findings.extend(_wall_clock_findings(tree, path))
            if not any(scope in parts for scope in COLUMN_SCOPE_EXEMPT):
                findings.extend(_column_internal_findings(tree, path))
            if any(scope in parts for scope in RECOVERY_SCOPE):
                findings.extend(_operator_construction_findings(tree, path))
            findings.extend(_process_primitive_findings(tree, path))
            if any(scope in parts for scope in MUTABLE_GLOBAL_SCOPE):
                findings.extend(_mutable_global_findings(tree, path))
            if parts[-2:] != FRACTIONS_MODULE:
                findings.extend(_fractions_import_findings(tree, path))
            for cls in classes:
                findings.extend(self._class_findings(path, cls))
        return findings

    def _class_findings(self, path: str, cls: _ClassFacts) -> List[LintFinding]:
        findings: List[LintFinding] = []
        if (
            cls.watermark_def is not None
            and cls.name != "Operator"
            and not cls.calls_purge_api
        ):
            findings.append(
                LintFinding(
                    path,
                    cls.watermark_def.lineno,
                    "RLB002",
                    f"{cls.name}._on_watermark purges without an expiry "
                    f"entry point ({', '.join(sorted(PURGE_APIS))}): hand-rolled "
                    "purge loops bypass the expiry index and the "
                    "incremental state accounting",
                )
            )
        if cls.name != "StatelessOperator" and self._derives_from(
            cls.name, "StatelessOperator"
        ):
            bypassed = [
                (cls.methods[hook], f"overrides {hook}")
                for hook in RELAY_BYPASSED_HOOKS
                if hook in cls.methods
            ]
            if cls.ordered_output_line is not None:
                bypassed.append((cls.ordered_output_line, "passes ordered_output=True"))
            for line, what in bypassed:
                findings.append(
                    LintFinding(
                        path,
                        line,
                        "RLB010",
                        f"{cls.name} is a StatelessOperator but {what}: "
                        "stateless operators relay progress without the "
                        "watermark hooks or the staging heap, so this never "
                        "takes effect — derive from Operator instead",
                    )
                )
            if Path(path).parts[-2:] != RUN_PROTOCOL_MODULE:
                copies = [
                    (cls.methods[entry], f"defines {entry}")
                    for entry in RUN_PROTOCOL_ENTRY_POINTS
                    if entry in cls.methods
                ]
                if cls.watermarks_line is not None:
                    copies.append((cls.watermarks_line, "touches _watermarks"))
                for line, what in copies:
                    findings.append(
                        LintFinding(
                            path,
                            line,
                            "RLB010",
                            f"{cls.name} is a StatelessOperator but {what}: "
                            "the stateless run protocol (order check, "
                            "watermark, charge, forward, relay) is written "
                            "once in StatelessOperator — override _apply, "
                            "category/cost or _map_batch instead",
                        )
                    )
        return findings


def lint_source(code: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one source string (single-module hierarchy)."""
    linter = Linter()
    linter.add_source(code, path)
    return linter.run()


def lint_paths(paths: Iterable[Path]) -> List[LintFinding]:
    """Lint ``.py`` files under the given files/directories."""
    linter = Linter()
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                linter.add_path(file)
        else:
            linter.add_path(path)
    return linter.run()


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Project-specific AST lint rules (RLB001-RLB011).",
    )
    parser.add_argument("paths", nargs="*", help="files/directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format: plain text (default), a JSON array, or "
        "GitHub Actions ::error annotations",
    )
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    targets = args.paths
    if not targets:
        root = Path(__file__).resolve().parents[1]  # src/repro
        targets = [str(root)]
    findings = lint_paths(Path(target) for target in targets)
    if args.format == "json":
        import json

        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "github":
        for finding in findings:
            print(finding.github_annotation())
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
