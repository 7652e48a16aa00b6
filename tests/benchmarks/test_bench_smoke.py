"""Tier-1 smoke run of the hot-path benchmark.

Executes ``benchmarks/hotpath/run.py --smoke`` exactly as a developer
would, into a temporary report path, and validates its verdict line.  This
keeps the benchmark (the four ``BENCHMARK.json`` workloads and their output
checks) from bitrotting without spending minutes in the test suite.  The
traced pass (``--trace 1``) also checks that the tracer still wraps the
layers' entry points: the re-optimizer's ``decide`` must count rounds on
``service_fanout``, the one workload whose controller runs.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def smoke_verdict(tmp_path, trace):
    """Run the smoke benchmark; return its checked verdict line."""
    output = tmp_path / "hotpath-smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "benchmarks" / "hotpath" / "run.py"),
            "--smoke",
            "--trace",
            trace,
            "--output",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    assert verdict["attempted"] > 0
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(verdict["metrics"]) == {w["name"] for w in spec["workloads"]}
    assert output.exists()
    return verdict


def test_hotpath_smoke_benchmark(tmp_path):
    verdict = smoke_verdict(tmp_path, "0")
    for name, metrics in verdict["metrics"].items():
        assert metrics["throughput_eps"]["value"] > 0, name


def test_hotpath_smoke_benchmark_traced(tmp_path):
    # The traced verdict lists the per-layer metrics instead.
    verdict = smoke_verdict(tmp_path, "1")
    assert verdict["metrics"]["service_fanout"]["optimizer.rounds"]["value"] > 0
