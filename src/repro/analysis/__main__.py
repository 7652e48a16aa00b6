"""``python -m repro.analysis``: verify a CQL query or plan file.

Compiles the query against a catalog assembled from ``--source`` options,
runs the plan verifier, prints the diagnostic report (or JSON with
``--json``), optionally writes an annotated DOT rendering, and exits
non-zero when the plan has errors — or when a strategy named with
``--strategy`` is unsafe for it.

Examples::

    python -m repro.analysis \
        "SELECT DISTINCT a.x FROM a [RANGE 10], b [RANGE 20] WHERE a.x = b.y" \
        --source a=x --source b=y

    python -m repro.analysis query.cql --source bids=item,price \
        --strategy parallel-track --json

The ``modelcheck`` subcommand instead runs the bounded migration model
checker (:mod:`repro.analysis.modelcheck`)::

    python -m repro.analysis modelcheck --all
    python -m repro.analysis modelcheck --preset pt-figure2 --budget 2000

``REPRO_SANITIZE=1`` in the environment runs either command under a
strict-gate stream sanitizer (:mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .plan_verifier import ERROR, STRATEGIES, PlanVerdict, verify_query

USAGE_ERROR = 2


def _parse_sources(specs: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    catalog: Dict[str, Tuple[str, ...]] = {}
    for spec in specs:
        name, sep, columns = spec.partition("=")
        if not sep or not name or not columns:
            raise ValueError(
                f"invalid --source {spec!r}: expected NAME=COL1,COL2,..."
            )
        catalog[name] = tuple(c.strip() for c in columns.split(",") if c.strip())
        if not catalog[name]:
            raise ValueError(f"invalid --source {spec!r}: no columns given")
    return catalog


def _load_query_text(argument: str) -> str:
    path = Path(argument)
    if path.suffix in (".cql", ".sql", ".txt") or path.is_file():
        return path.read_text(encoding="utf-8")
    return argument


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "modelcheck":
        from .modelcheck import run_cli

        return run_cli(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify a CQL query for migration safety.",
    )
    parser.add_argument(
        "query", help="CQL query text, or a path to a file containing it"
    )
    parser.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="NAME=COL1,COL2",
        help="declare a source stream's schema (repeatable)",
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        help="additionally fail (exit 1) when this strategy is unsafe",
    )
    parser.add_argument(
        "--dot", metavar="PATH", help="write an annotated DOT rendering"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )
    try:
        args = parser.parse_args(arguments)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)

    from ..cql import CQLSyntaxError, Catalog, TranslationError, compile_query

    try:
        catalog = Catalog(_parse_sources(args.source))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        text = _load_query_text(args.query)
    except OSError as exc:
        print(f"error: cannot read {args.query!r}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        query = compile_query(text, catalog)
    except (CQLSyntaxError, TranslationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    verdict: PlanVerdict = verify_query(query)

    if args.dot:
        from ..plans.dot import plan_to_dot

        Path(args.dot).write_text(plan_to_dot(query.plan), encoding="utf-8")

    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, default=str))
    else:
        print(verdict.report())

    failed = any(d.severity == ERROR for d in verdict.diagnostics)
    if args.strategy is not None and not verdict.strategies[args.strategy].safe:
        failed = True
        if not args.json:
            print(
                f"\nFAIL: strategy {args.strategy!r} is unsafe for this plan",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    if os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "yes", "on"):
        from .sanitizer import StreamSanitizer

        StreamSanitizer(strict_gate=True).install()
    sys.exit(main())
