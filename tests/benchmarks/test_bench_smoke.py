"""Tier-1 smoke run of the hot-path benchmark.

Executes ``benchmarks/hotpath/run.py --smoke`` exactly as a developer
would, into a temporary report path, and validates its verdict line.  This
keeps the benchmark (the four ``BENCHMARK.json`` workloads and their output
checks) from bitrotting without spending minutes in the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_hotpath_smoke_benchmark(tmp_path):
    output = tmp_path / "hotpath-smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "benchmarks" / "hotpath" / "run.py"),
            "--smoke",
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
    for name, metrics in verdict["metrics"].items():
        assert metrics["throughput_eps"]["value"] > 0, name
    assert output.exists()
