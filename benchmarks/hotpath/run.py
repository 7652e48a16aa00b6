#!/usr/bin/env python3
"""The repo's hot-path benchmark: four workloads, one command.

    python benchmarks/hotpath/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--output FILE]

Runs each selected workload in its own ``worker.py`` process (one busy
thread, ``PYTHONHASHSEED=0``), prints every metric by name with its unit
and its quartiles over the timed passes, checks the outputs, and exits
non-zero when any check fails.  The metric names, units and regression
bounds live in ``BENCHMARK.json`` at the repository root; ``README.md``
beside this file says what each one means and which layer should move it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics without ``--trace``, the per-layer metrics with it.  With one
``--workload`` the metrics are ``{name: {"value", "unit"}}``; without, one
such table per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(workload: str, args, spans: Optional[str]) -> dict:
    """Measure one workload in a child process; its JSON document.

    A crash, a timeout or unparsable output becomes a document with one
    failed operation, so the caller's bookkeeping has a single shape.
    """
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if spans:
        command += ["--spans", spans]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        finished = subprocess.run(
            command, env=environment, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S
        )
        if finished.returncode == 0:
            return json.loads(finished.stdout)
        error = f"worker exited with code {finished.returncode}"
    except subprocess.TimeoutExpired:
        error = f"worker exceeded {WORKER_TIMEOUT_S} s"
    except ValueError as exc:
        error = f"worker printed no JSON document: {exc}"
    return {
        "workload": workload, "error": error, "metrics": {}, "checks": [],
        "ops_attempted": 1, "ops_failed": 1,
    }


def fingerprint() -> dict:
    """Where and on what this run was measured."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        commit = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "git_commit": commit,
        "load_average_start": os.getloadavg(),
    }


def disturbed(document: dict, floors: dict) -> Optional[bool]:
    """Whether the timed passes of this run were noisier than twice the
    pass spread ``noise_floor.json`` recorded for the workload."""
    floor = floors.get(document["workload"])
    stats = document["metrics"].get("throughput_eps")
    if floor is None or not stats or not stats["value"]:
        return None
    return (stats["q3"] - stats["q1"]) / stats["value"] > 2 * floor


def report(document: dict, listed: List[dict]) -> None:
    """Print one workload's metrics, by name, with unit and spread."""
    title = f"{document['workload']}  (seed {document.get('seed')}, {document.get('passes')} passes)"
    print(title)
    if "error" in document:
        print(f"  FAILED: {document['error']}")
        return
    for entry in listed:
        stats = document["metrics"][entry["name"]]
        line = f"  {entry['name']:<32}{stats['value']:>16.4f} {entry['unit']:<6}"
        if stats["n"] > 1:
            line += f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n {stats['n']}"
        print(line)
    for check in document["checks"]:
        print(f"  FAILED: {check['name']}  {check['detail']}")
    print(
        f"  ops_attempted {document['ops_attempted']}  ops_failed {document['ops_failed']}"
        f"  wall {document['wall_s']:.1f} s"
        + ("  DISTURBED" if document.get("disturbed") else "")
    )


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="pass time to spend per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add the traced pass and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny feeds and a single pass: development only")
    parser.add_argument("--output", help="write the full JSON report here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        with open(os.path.join(HERE, "noise_floor.json"), encoding="utf-8") as handle:
            floors = json.load(handle)["pass_iqr_over_median"]
    except OSError:
        floors = {}

    started = time.perf_counter()
    environment = fingerprint()
    documents: List[dict] = []
    for workload in [args.workload] if args.workload else names:
        spans = None
        if args.trace and args.output:
            spans = f"{os.path.splitext(args.output)[0]}.{workload}.spans.json"
        document = run_worker(workload, args, spans)
        missing = [e["name"] for e in listed if e["name"] not in document["metrics"]]
        if missing and "error" not in document:
            document["error"] = f"metrics missing from the worker's report: {missing}"
            document["ops_failed"] += 1
        if not args.smoke:
            document["disturbed"] = disturbed(document, floors)
        report(document, listed)
        documents.append(document)
    environment["load_average_end"] = os.getloadavg()

    attempted = sum(d["ops_attempted"] for d in documents)
    failed = sum(d["ops_failed"] for d in documents)
    tables: Dict[str, dict] = {
        d["workload"]: {
            e["name"]: {"value": d["metrics"][e["name"]]["value"], "unit": e["unit"]}
            for e in listed if e["name"] in d["metrics"]
        }
        for d in documents
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "hotpath",
                    "claim": None,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "smoke": args.smoke,
                    "environment": environment,
                    "wall_s": time.perf_counter() - started,
                    "workloads": documents,
                },
                handle,
                indent=1,
            )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": tables[args.workload] if args.workload else tables,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
