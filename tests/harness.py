"""The migration-correctness harness: one case generator, one judge.

The contract of every migration strategy is snapshot equivalence
(Definitions 1-2, Lemma 1) plus delivery in start order — no result lost,
none duplicated, none late.  A *case* is the plain JSON dict of
:mod:`repro.analysis.cases`, which also holds its vocabulary: the plan
families and rewrites, the builds, the strategy names and the feeds'
streams.  The model checker explores the same cases under every
schedule; this harness runs one under a scheduler (:data:`SCHEDULERS`),
a batch size, ``batch_during_migration``, a trigger ``migrate_at`` and
optionally ``and_back``, a second migration back to the old plan with
the same strategy the moment the first completes.

:func:`draw_case` draws one from a seed, :func:`check_case` runs and
judges it, :func:`shrink` minimises a failing one greedily and
:func:`write_corpus` files it under ``tests/corpus/``, where the suite
replays it forever after.  Cases are JSON; nothing depends on a
hypothesis database, an environment variable or a command-line flag.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.cases import (
    BUILDERS,
    STRATEGIES,
    UNORDERED,
    boxes_of,
    plans_of,
    rewrites,
    streams_of,
)
from repro.analysis.oracle import RelationalOracle
from repro.analysis.plan_verifier import (
    FLUID,
    PARALLEL_TRACK,
    REFERENCE_POINT,
    verify_migration,
)
from repro.analysis.sanitizer import StreamSanitizer, sanitized
from repro.core import MovingStates, UnsupportedPlanError
from repro.engine import GlobalOrderScheduler, QueryExecutor, RoundRobinScheduler
from repro.streams import CollectorSink, PhysicalStream

CORPUS = Path(__file__).parent / "corpus"

SCHEDULERS = {
    "global": GlobalOrderScheduler,
    "rr-2": lambda: RoundRobinScheduler(batch=2),
    "rr-4": lambda: RoundRobinScheduler(batch=4),
}

BATCH_SIZES = (1, 2, 3, 64)
WINDOWS = (3, 6, 12)


@functools.lru_cache(maxsize=None)
def _admitted(family: str, rewrite: int, old_build: str, new_build: str) -> Tuple[str, ...]:
    case = dict(family=family, rewrite=rewrite, old_build=old_build, new_build=new_build)
    return tuple(strategies_for(*boxes_of(case)))


def strategies_for(old_box, new_box) -> List[str]:
    """``"none"``, GenMig and its shortened variant, and every other
    strategy that admits the pair: the verifier's safe verdicts, fluid at
    each range count, and Moving States where its own check accepts."""
    names = ["none", "genmig", "genmig-short"]
    verdict = verify_migration(old_box, new_box).strategies
    if verdict[REFERENCE_POINT].safe:
        names.append("genmig-rp")
    if verdict[PARALLEL_TRACK].safe:
        names.append("parallel-track")
    if verdict[FLUID].safe:
        names += ["fluid-1", "fluid-2", "fluid-8"]
    try:
        MovingStates()._validate(old_box, new_box)
        names.append("moving-states")
    except UnsupportedPlanError:
        pass
    return names


def draw_case(seed: int) -> dict:
    """The case of one seed, every dimension drawn from ``Random(seed)``.

    The strategy is drawn first, each kind equally often (fluid then
    draws its range count), and the plan family, rewrite and builds are
    redrawn until the pair admits it.  Migrations trigger early and
    windows are short, so ``T_split`` falls inside the feeds.
    """
    rng = random.Random(seed)
    kind = rng.choice(
        ("none", "genmig", "genmig-short", "genmig-rp", "parallel-track", "moving-states", "fluid")
    )
    strategy = f"fluid-{rng.choice((1, 2, 8))}" if kind == "fluid" else kind
    while True:
        family = rng.choice(sorted(rewrites()))
        rewrite = rng.randrange(len(rewrites()[family]))
        builds = (rng.choice(sorted(BUILDERS)), rng.choice(sorted(BUILDERS)))
        if strategy in _admitted(family, rewrite, *builds):
            break
    case = {
        "family": family,
        "rewrite": rewrite,
        "old_build": builds[0],
        "new_build": builds[1],
        "strategy": strategy,
        "scheduler": rng.choice(sorted(SCHEDULERS)),
        "batch_size": rng.choice(BATCH_SIZES),
        "batch_during_migration": rng.random() < 0.5,
        "window": rng.choice(WINDOWS),
        "migrate_at": rng.randint(0, 12),
    }
    case["feeds"] = {
        name: [[rng.randint(0, 5), rng.choice((0, 0, 1, 2))] for _ in range(rng.randint(3, 40))]
        for name in sorted(plans_of(case)[0].sources())
    }
    # Back-to-back: migrate back to the old plan the moment the first
    # migration completes, where the strategy admits the reversed pair.
    back = strategy != "none" and strategy in strategies_for(*reversed(boxes_of(case)))
    case["and_back"] = back and rng.random() < 0.25
    return case


def run_case(case: dict, batch_size: int, strategy: Optional[str] = None):
    """One run of ``case``; returns ``(output, executor, strategy)``."""
    strategy = case["strategy"] if strategy is None else strategy
    old_box, new_box = boxes_of(case)
    streams = streams_of(case)
    executor = QueryExecutor(
        {name: PhysicalStream(elements, name=name) for name, elements in streams.items()},
        {name: case["window"] for name in streams},
        old_box,
        scheduler=SCHEDULERS[case["scheduler"]](),
        batch_size=batch_size,
        batch_during_migration=case["batch_during_migration"],
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    migration = None
    if strategy != "none":
        migration = STRATEGIES[strategy]()
        executor.schedule_migration(case["migrate_at"], new_box, migration)
    if strategy != "none" and case["and_back"]:
        back = boxes_of(case)[0]

        def migrate_back(report) -> None:
            if len(executor.migration_log) == 1:
                executor.start_migration(back, STRATEGIES[strategy]())

        executor.on_migration_complete = migrate_back
    executor.run()
    return sink.elements, executor, migration


def _trace(output, executor) -> tuple:
    """What byte identity compares: every result, and the meter per category."""
    return (
        [(e.payload, e.start, e.end, e.flag) for e in output],
        executor.meter.total,
        dict(executor.meter.by_category),
    )


def _multiset(output) -> list:
    return sorted((e.payload, e.start, e.end) for e in output)


def _failures(case: dict) -> List[str]:
    strategy = case["strategy"]
    output, executor, migration = run_case(case, case["batch_size"])
    failures = [
        f"{code} {message}"
        for code, message, _ in RelationalOracle(streams_of(case, windowed=True)).judge(
            plans_of(case)[0], output, check_order=strategy not in UNORDERED
        )
    ]
    # Byte identity with the element-at-a-time run, which the executor
    # promises unless it batches through the migration.
    if case["batch_size"] > 1 and (strategy == "none" or not case["batch_during_migration"]):
        if _trace(output, executor) != _trace(*run_case(case, 1)[:2]):
            failures.append(f"batch size {case['batch_size']} is not byte-identical with 1")
    if strategy == "none":
        return failures
    if strategy.startswith("fluid") or strategy == "moving-states":
        if _multiset(output) != _multiset(run_case(case, 1, "none")[0]):
            failures.append("output multiset differs from the unmigrated run")
    log = executor.migration_log
    if executor.strategy is not None or len(log) != 1 + case["and_back"]:
        failures.append(f"{len(log)} migrations logged, strategy left {executor.strategy!r}")
    elif executor.state_value_count() or getattr(migration, "merge", None) is not None and (
        migration.merge.state_value_count()
    ):
        failures.append("migration state left behind")
    elif strategy == "genmig-short" and log[0].t_split is not None:
        standard = run_case(case, case["batch_size"], "genmig")[1].migration_log[0]
        if log[0].t_split > standard.t_split:
            failures.append(f"shortened T_split {log[0].t_split} > standard {standard.t_split}")
    elif strategy == "fluid-1" and len(log[0].extra["range_log"]) != 1:
        failures.append(f"fluid at R = 1 flipped {len(log[0].extra['range_log'])} times")
    return failures


def check_case(case: dict) -> Optional[str]:
    """Run and judge ``case`` under a strict-gate sanitizer; the first
    failure, or ``None`` when the case keeps every promise."""
    try:
        with sanitized(StreamSanitizer(strict_gate=True)):
            failures = _failures(case)
    except Exception as exc:  # a sanitizer violation or an engine error
        return f"{type(exc).__name__}: {exc}"
    return failures[0] if failures else None


#: One-step simplifications of a case's settings.
_SIMPLER = (
    ("and_back", False),
    ("batch_size", 1),
    ("batch_during_migration", False),
    ("scheduler", "global"),
    ("old_build", "hash"),
    ("new_build", "hash"),
    ("window", 3),
    ("migrate_at", 0),
)


def _with_feed(case: dict, name: str, feed: list) -> dict:
    return dict(case, feeds=dict(case["feeds"], **{name: feed}))


def shrink(case: dict, failure: str, budget: int = 600) -> Tuple[dict, str]:
    """Greedily simplify a failing case while it still fails: settings
    first, then chunks of each feed (halving the chunk size, as delta
    debugging does), then each element's value and delta."""
    checks = 0

    def fails(candidate: dict) -> bool:
        nonlocal checks, failure
        checks += 1
        found = check_case(candidate)
        if found is not None:
            failure = found
        return found is not None

    changed = True
    while changed and checks < budget:
        changed = False
        for key, simple in _SIMPLER:
            if case[key] != simple and fails(dict(case, **{key: simple})):
                case, changed = dict(case, **{key: simple}), True
        for name in sorted(case["feeds"]):
            size = len(case["feeds"][name]) // 2
            while size >= 1 and checks < budget:
                i = 0
                while i < len(case["feeds"][name]) and checks < budget:
                    feed = case["feeds"][name]
                    candidate = _with_feed(case, name, feed[:i] + feed[i + size :])
                    if fails(candidate):
                        case, changed = candidate, True
                    else:
                        i += size
                size //= 2
            for i in range(len(case["feeds"][name])):
                for simpler in ([0, None], [None, 0], [None, 1]):
                    feed = case["feeds"][name]
                    entry = [o if s is None else min(o, s) for o, s in zip(feed[i], simpler)]
                    if entry != feed[i] and checks < budget:
                        candidate = _with_feed(case, name, feed[:i] + [entry] + feed[i + 1 :])
                        if fails(candidate):
                            case, changed = candidate, True
    return case, failure


def write_corpus(case: dict, failure: str) -> Path:
    """File a (shrunk) failing case under ``tests/corpus/``."""
    text = json.dumps(case, sort_keys=True)
    name = f"{case['family']}-{case['strategy']}-{hashlib.sha1(text.encode()).hexdigest()[:8]}.json"
    path = CORPUS / name
    CORPUS.mkdir(exist_ok=True)
    text = json.dumps(
        {"failure": failure, "case": case}, indent=1, sort_keys=True, ensure_ascii=False
    )
    # One line per [value, delta] pair.
    text = re.sub(r"\[\s+(-?\d+),\s+(-?\d+)\s+\]", r"[\1, \2]", text)
    path.write_text(text + "\n")
    return path
