"""One workload, measured in its own process.

``run.py`` starts this file once per workload with ``PYTHONHASHSEED=0``
(so set and dict iteration repeats) and reads one JSON document from its
standard output.  The protocol, in order:

1. **Set-up**, several times: clear the kernel compile cache, compile or
   build the plans, generate the feed from the seed, open a session.
   ``setup_s`` is the import time (paid once per process) plus the median
   of those samples.
2. One **count pass**, untimed for throughput: warms every cache, samples
   ``state_value_count()`` every 64 pushes and at every migration start
   and completion, and records the exact counts every later pass must
   reproduce (results, checksum, migration log).
3. **Timed passes**, each on a fresh session and fresh ``Batch`` objects,
   garbage collector frozen and disabled, until ``--seconds`` of pass time
   are spent (at least 5 passes, at most 12).  A throughput's value is
   the median over the passes.  Latency percentiles are taken over the
   *median pass*: every pass replays the identical feed, so push ``i``
   has one duration per pass, and the median of those is what the program
   costs at push ``i`` with the neighbours' bursts voted out.  NOISE.md
   has the evidence; quartiles and extremes over the passes are reported
   beside every value.
4. The **correctness gate** (counts, checksums, twin equivalence).
5. With ``--trace 1``: one traced set-up, one **traced pass** with the
   wrappers of :mod:`tracing` installed, and a checkpoint round trip.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(os.path.join(HERE, "..", "..", "src")))

import workloads  # noqa: E402
from repro.plans.kernels import clear_kernel_cache, kernel_cache_stats  # noqa: E402
from repro.recovery.checkpoint import CheckpointManager  # noqa: E402
from repro.recovery.restore import restore_service  # noqa: E402
from repro.recovery.snapshot import decode_snapshot, encode_snapshot  # noqa: E402
from tracing import Tracer, layer_of  # noqa: E402
from workloads import STRATEGY_CODES, STRATEGY_LABELS  # noqa: E402

#: Everything a cold start pays before the first plan can be built.
IMPORT_S = time.perf_counter() - ENTERED

MIN_PASSES = 5
MAX_PASSES = 12
SETUP_SAMPLES = 5


# --------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------- #


def drive(workload, sample_state: bool = False) -> Dict[str, object]:
    """Push the whole feed through a fresh session; time every call.

    The loop is the same for counting, timing and tracing; only the count
    pass pays for state sampling.  Returns the raw per-pass record.
    """
    session, calls = workload.open()
    sizes = workload.sizes
    actions = workload.actions(session)
    push, migrating = session.push, session.migrating
    log = session.migrations()
    clock = time.perf_counter_ns
    durations = [0] * len(calls)
    codes = bytearray(len(calls))
    action_ns: Dict[int, int] = {}
    samples: List[tuple] = []
    completed = 0
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        begin = clock()
        for index, call in enumerate(calls):
            action = actions.get(index)
            if action is not None:
                started = clock()
                action()
                action_ns[index] = clock() - started
            codes[index] = migrating()
            started = clock()
            push(*call)
            durations[index] = clock() - started
            if sample_state and (
                index % 64 == 0 or action is not None or len(log) != completed
                or codes[index] != codes[index - 1]
            ):
                completed = len(log)
                samples.append((index, session.state_values()))
        unfinished = migrating() != 0
        session.finish()
        end = clock()
    finally:
        gc.enable()
        gc.unfreeze()

    fixed = workload.fixed_codes()
    if fixed is not None:
        codes = fixed
    reports = session.migrations()
    results_out, checksum = workloads.digest(session)
    chronons: Dict[str, float] = {}
    for code, label in STRATEGY_LABELS.items():
        spans = [
            float(r.completed_at - r.started_at)
            for r in reports if STRATEGY_CODES.get(r.strategy) == code
        ]
        if spans:
            chronons[label] = statistics.fmean(spans)
    record: Dict[str, object] = {
        "begin_ns": begin,
        "wall_s": (end - begin) / 1e9,
        "metrics": {
            **_rates(sizes, durations, codes, action_ns, end - begin),
            **_latencies(sizes, durations, codes),
        },
        "durations": durations,
        "codes": codes,
        "chronons": chronons,
        "counts": {
            "elements_in": sum(sizes),
            "results_out": results_out,
            "checksum": checksum,
            "in_migration_elements": sum(size for size, code in zip(sizes, codes) if code),
            "migrations": [
                [r.strategy, str(r.started_at), str(r.completed_at), r.extra.get("merged", 0)]
                for r in reports
            ],
            "unfinished_migrations": int(unfinished),
        },
    }
    if sample_state:
        record["state"] = _state_summary(samples, codes)
    return record


def _rates(sizes, durations, codes, action_ns, wall_ns) -> Dict[str, float]:
    """Elements per second: whole pass, in flight, in flight per strategy."""
    elements_by_code: Dict[int, int] = {}
    ns_by_code: Dict[int, int] = {}
    for ns, size, code in zip(durations, sizes, codes):
        if code:
            elements_by_code[code] = elements_by_code.get(code, 0) + size
            ns_by_code[code] = ns_by_code.get(code, 0) + ns
    # A migration's start (build, select, start_migration) is part of its
    # cost: charge it to the strategy in flight at the push that follows it.
    for index, ns in action_ns.items():
        code = codes[index]
        if code:
            ns_by_code[code] = ns_by_code.get(code, 0) + ns
    flight_ns = sum(ns_by_code.values())
    stall_ns = max(
        [ns for ns, code in zip(durations, codes) if code] + list(action_ns.values()),
        default=0,
    )
    return {
        "throughput_eps": sum(sizes) / (wall_ns / 1e9),
        "migration_eps": (
            sum(elements_by_code.values()) / (flight_ns / 1e9) if flight_ns else 0.0
        ),
        "core.stall_max_ms": stall_ns / 1e6,
        **{
            f"core.{label}.eps": (
                elements_by_code[code] / (ns_by_code[code] / 1e9)
                if ns_by_code.get(code) else 0.0
            )
            for code, label in STRATEGY_LABELS.items()
        },
    }


def _latencies(sizes, durations, codes) -> Dict[str, float]:
    """Per-element service time percentiles, all pushes and in flight."""
    per_element = sorted(ns / size for ns, size in zip(durations, sizes))
    in_flight = sorted(
        ns / size for ns, size, code in zip(durations, sizes, codes) if code
    )
    return {
        "push_p50_us": _percentile(per_element, 50) / 1e3,
        "push_p99_us": _percentile(per_element, 99) / 1e3,
        "migration_push_p99_us": _percentile(in_flight, 99) / 1e3,
    }


def _percentile(ordered: List[float], q: int) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, (len(ordered) * q) // 100)]


def _state_summary(samples, codes) -> Dict[str, int]:
    """Peak state overall and in flight, and the last steady sample before
    the first migration (or first fixed slice) begins."""
    steady = 0
    seen_flight = False
    peak = peak_flight = 0
    for index, values in samples:
        in_flight = codes[index] != 0
        seen_flight = seen_flight or in_flight
        if not seen_flight:
            steady = values
        peak = max(peak, values)
        if in_flight:
            peak_flight = max(peak_flight, values)
    return {"peak": peak, "peak_in_flight": peak_flight, "steady": steady}


# --------------------------------------------------------------------- #
# Statistics over passes
# --------------------------------------------------------------------- #


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


class Gate:
    """Collects named checks; every check is one attempted operation."""

    def __init__(self) -> None:
        self.checks: List[Dict[str, object]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(1 for check in self.checks if not check["ok"])


def check_pass(gate: Gate, workload, label: str, counts, reference) -> None:
    """One pass against the count pass and the workload's own promises."""
    for key in ("elements_in", "results_out", "checksum", "migrations",
                "in_migration_elements"):
        gate.check(
            f"{label}: {key} equals the count pass",
            counts[key] == reference[key],
            f"{counts[key]!r} != {reference[key]!r}" if counts[key] != reference[key] else "",
        )
    gate.check(f"{label}: delivers results", counts["results_out"] > 0)
    gate.check(
        f"{label}: every migration completed before the feed ended",
        counts["unfinished_migrations"] == 0
        and len(counts["migrations"]) >= workload.expected_migrations,
        f"{len(counts['migrations'])} completed, {workload.expected_migrations} expected",
    )
    gate.check(
        f"{label}: at least {workload.min_in_migration} in-migration elements",
        not workload.expected_migrations
        or counts["in_migration_elements"] >= workload.min_in_migration,
        str(counts["in_migration_elements"]),
    )


# --------------------------------------------------------------------- #
# Traced pass and recovery round trip
# --------------------------------------------------------------------- #


def traced_run(name: str, seed: int, smoke: bool, spans_path: Optional[str]):
    """A cold set-up and one pass under the tracer; returns its numbers."""
    tracer = Tracer()
    clear_kernel_cache()
    before = kernel_cache_stats()
    tracer.install()
    try:
        workload = workloads.make(name, seed, smoke)
        workload.prepare()
        workload.open()
        setup_end = tracer.mark()
        feed_s = workload.timings.get("feed", 0.0)
        record = drive(workload)
    finally:
        tracer.restore()
    after = kernel_cache_stats()
    hits = after["lifetime_hits"] - before["lifetime_hits"]
    misses = after["lifetime_misses"] - before["lifetime_misses"]
    if spans_path:
        tracer.dump(spans_path, name, record["begin_ns"])
    return {
        "setup": tracer.summarise(0, setup_end),
        "pass": tracer.summarise(setup_end),
        "wall_s": record["wall_s"],
        "feed_s": feed_s,
        "kernel_compiles": after["lifetime_compiled"] - before["lifetime_compiled"],
        "kernel_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "counts": record["counts"],
        "spans": tracer.mark(),
    }


def recovery_round_trip(workload) -> Dict[str, float]:
    """Checkpoint, encode, decode and restore the workload's warm state."""
    service, push, calls, queries = workload.recovery()
    for call in calls:
        push(*call)
    started = time.perf_counter()
    blob = encode_snapshot(CheckpointManager(service).capture())
    checkpoint_s = time.perf_counter() - started
    started = time.perf_counter()
    restored = restore_service(decode_snapshot(blob), queries=queries)
    restore_s = time.perf_counter() - started
    state = sum(h.executor.state_value_count() for h in service.registry.handles())
    same = state == sum(
        h.executor.state_value_count() for h in restored.registry.handles()
    )
    return {
        "recovery.checkpoint_ms": checkpoint_s * 1e3,
        "recovery.snapshot_bytes": len(blob),
        "recovery.restore_ms": restore_s * 1e3,
        "state_restored": same,
    }


def layer_metrics(trace, untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics read off the traced run's span summaries."""
    setup, run = trace["setup"], trace["pass"]

    def self_s(*layers: str) -> float:
        return sum(row["self_s"] for label, row in run.items() if layer_of(label) in layers)

    def field(label: str, key: str, table=run) -> float:
        return table.get(label, {}).get(key, 0)

    def starts(strategy: str) -> float:
        label = f"engine.executor/start_migration:{strategy}"
        calls = field(label, "calls")
        return field(label, "total_s") / calls * 1e3 if calls else 0.0

    operator_rows = {l: r for l, r in run.items() if layer_of(l).startswith("operators.")}
    data_rows = [r for l, r in operator_rows.items() if not l.endswith("heartbeat")]
    data_calls = sum(row["calls"] for row in data_rows)
    pushes = field("engine.executor/push", "calls") + field("engine.executor/push_batch", "calls")
    published = field("service.hub/push", "items")
    rounds = field("optimizer/decide", "calls")
    return {
        "cql.compile_ms": field("cql/compile_query", "total_s", setup) * 1e3,
        "optimizer.rounds": rounds,
        "optimizer.round_self_ms": (
            field("optimizer/decide", "self_s") / rounds * 1e3 if rounds else 0.0
        ),
        "plans.build_ms": field("plans/build", "total_s", setup) * 1e3,
        "plans.kernel_compiles": trace["kernel_compiles"],
        "plans.kernel_cache_hit_ratio": trace["kernel_hit_ratio"],
        "temporal.feed_build_s": trace["feed_s"],
        "service.hub_self_s": self_s("service.hub"),
        "service.controller_self_s": self_s("service.controller"),
        "service.heartbeats_sent": field("engine.executor/advance", "calls"),
        "service.fanout_ratio": pushes / published if published else 0.0,
        "engine.executor_self_s": self_s("engine.executor", "engine.router"),
        "engine.gate_self_s": self_s("engine.gate"),
        "engine.pushes": pushes,
        "engine.elements_in": (
            field("engine.executor/push", "items") + field("engine.executor/push_batch", "items")
        ),
        "operators.window_self_s": self_s("operators.window"),
        "operators.stateless_self_s": self_s("operators.stateless"),
        "operators.join_self_s": self_s("operators.join"),
        "operators.aggregate_self_s": self_s("operators.aggregate"),
        "operators.distinct_self_s": self_s("operators.distinct"),
        "operators.calls": sum(row["calls"] for row in operator_rows.values()),
        "operators.elements_in": sum(row["items"] for row in operator_rows.values()),
        "operators.elements_out": sum(row["items_from_operators"] for row in run.values()),
        "operators.batch_mean_len": (
            sum(row["items"] for row in data_rows) / data_calls if data_calls else 0.0
        ),
        "core.select_strategy_ms": field("core.select/select_strategy", "total_s") * 1e3,
        "core.strategy_self_s": self_s("core.strategy"),
        "core.split_self_s": self_s("core.split"),
        "core.coalesce_self_s": self_s("core.coalesce"),
        "core.router_self_s": self_s("core.router"),
        "core.rp.start_ms": starts("genmig-rp"),
        "core.genmig.start_ms": starts("genmig"),
        "core.fluid.start_ms": starts("fluid"),
        "streams.sink_self_s": self_s("streams.sink"),
        "streams.results_out": field("engine.gate/process", "items"),
        "trace.overhead_ratio": trace["wall_s"] / untraced_wall_s,
        "trace.coverage": sum(row["root_s"] for row in run.values()) / trace["wall_s"],
    }


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    load_start = os.getloadavg()

    setup_samples: List[float] = []
    for _ in range(2 if args.smoke else SETUP_SAMPLES):
        clear_kernel_cache()
        started = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, args.smoke)
        workload.prepare()
        workload.open()
        setup_samples.append(IMPORT_S + time.perf_counter() - started)
    setup_steps = dict(workload.timings)

    gate = Gate()
    started = time.perf_counter()
    count = drive(workload, sample_state=True)
    count_pass_s = time.perf_counter() - started
    reference = count["counts"]
    check_pass(gate, workload, "count pass", reference, reference)

    # In trace mode the untraced passes only anchor the overhead ratio and
    # the per-strategy throughputs; a third of the time is enough.
    budget_s = args.seconds / 3 if args.trace else args.seconds
    floor = 1 if args.smoke else (3 if args.trace else MIN_PASSES)
    passes: List[Dict[str, object]] = []
    while len(passes) < MAX_PASSES and (
        len(passes) < floor or sum(p["wall_s"] for p in passes) < budget_s
    ):
        record = drive(workload)
        check_pass(gate, workload, f"pass {len(passes) + 1}", record["counts"], reference)
        passes.append(record)

    metrics = {
        name: spread([p["metrics"][name] for p in passes])
        for name in passes[0]["metrics"]
    }
    # The median pass: push i costs the median of its durations over the
    # passes.  Its percentiles replace the medians of per-pass percentiles
    # (kept as ``per_pass_median``), which a burst in half the passes moves.
    median_pass = [
        statistics.median(column) for column in zip(*(p.pop("durations") for p in passes))
    ]
    for name, value in _latencies(workload.sizes, median_pass, passes[0]["codes"]).items():
        metrics[name]["per_pass_median"] = metrics[name]["value"]
        metrics[name]["value"] = value
    metrics["setup_s"] = spread(setup_samples)
    metrics["peak_state_values"] = spread([float(count["state"]["peak"])])
    metrics["peak_rss_mb"] = spread(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )

    divergence = workload.twin_check(reference)
    gate.check("migrated run agrees with its unmigrated twin",
               divergence is None, divergence or "")

    document: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_metrics": {
            name: [p["metrics"][name] for p in passes] for name in passes[0]["metrics"]
        },
        "count_pass_s": count_pass_s,
        "import_s": IMPORT_S,
        "setup_steps_s": setup_steps,
        "counts": {**reference, "state": count["state"]},
        "metrics": metrics,
        "latency_note": (
            "push_*_us is the wall time of one push/push_batch/publish call divided "
            "by its elements: the engine is synchronous, so this is event-to-result "
            "latency without queueing"
        ),
    }

    if args.trace:
        trace = traced_run(args.workload, args.seed, args.smoke, args.spans)
        check_pass(gate, workload, "traced pass", trace["counts"], reference)
        layers = layer_metrics(trace, statistics.median(p["wall_s"] for p in passes))
        recovery = recovery_round_trip(workload)
        gate.check("restored state equals checkpointed state", recovery.pop("state_restored"))
        layers.update(recovery)
        steady_state = count["state"]["steady"]
        layers["operators.state_values_steady"] = steady_state
        layers["core.peak_state_ratio"] = (
            count["state"]["peak_in_flight"] / steady_state if steady_state else 0.0
        )
        layers["core.coalesce_merged"] = sum(m[3] for m in reference["migrations"])
        for label in STRATEGY_LABELS.values():
            layers[f"core.{label}.chronons"] = count["chronons"].get(label, 0.0)
        for name, value in layers.items():
            metrics[name] = spread([float(value)])
        document["trace"] = {
            "spans": trace["spans"],
            "wall_s": trace["wall_s"],
            "setup": trace["setup"],
            "pass": trace["pass"],
        }

    pushes = len(workload.sizes) * (len(passes) + 1 + (1 if args.trace else 0))
    migrations = len(reference["migrations"]) * (len(passes) + 1)
    document["checks_run"] = len(gate.checks)
    document["checks"] = [check for check in gate.checks if not check["ok"]]
    document["ops_attempted"] = pushes + migrations + len(gate.checks)
    document["ops_failed"] = gate.failed
    document["load_average"] = {"start": load_start, "end": os.getloadavg()}
    document["wall_s"] = time.perf_counter() - ENTERED
    json.dump(document, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
