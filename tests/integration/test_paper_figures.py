"""The CostMeter numbers behind the paper's Figures 4-6, pinned.

``test_paper_experiment`` asserts the figures' *shapes*; this test pins
their *numbers*.  It runs the Section 5 experiment of
``benchmarks/workload.py`` at its scaled configuration for every
migration strategy and both join costs, and compares each run with a
JSON fixture: the meter total and per-category charges (Figure 6), the
output count and an order-sensitive digest of the output stream
(Figure 4), the peak of the memory series (Figure 5), and the migration
report's timing.  A refactor that claims to keep behaviour must keep
every one of these numbers.

Regenerate the fixture (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_paper_figures.py
"""

import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))

from workload import STRATEGIES, run_experiment, scaled_config  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "paper_figures.json")
JOIN_COSTS = (1, 5)


def digest(elements):
    """An order-sensitive fingerprint of an output stream."""
    h = hashlib.sha256()
    for e in elements:
        h.update(repr((e.payload, e.start, e.end, e.flag)).encode())
    return h.hexdigest()


def observe(strategy, join_cost):
    """The numbers one run contributes to Figures 4-6, JSON-shaped."""
    run = run_experiment(strategy, scaled_config(join_cost))
    memory = [v for v in run.metrics.memory_usage() if v is not None]
    report = run.report
    return {
        "meter_total": run.meter.total,
        "by_category": dict(sorted(run.meter.by_category.items())),
        "outputs": len(run.sink.elements),
        "digest": digest(run.sink.elements),
        "peak_memory": max(memory) if memory else None,
        "report": None if report is None else {
            "started_at": report.started_at,
            "completed_at": report.completed_at,
            "t_split": report.t_split,
            "extra": {key: report.extra[key] for key in sorted(report.extra)},
        },
    }


def capture():
    return {
        f"{strategy}/{join_cost}": observe(strategy, join_cost)
        for strategy in STRATEGIES
        for join_cost in JOIN_COSTS
    }


@pytest.fixture(scope="module")
def pinned():
    if os.environ.get("REPRO_BENCH_SCALE") == "paper":
        pytest.skip("the fixture pins the scaled configuration")
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("join_cost", JOIN_COSTS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_figure_numbers_match_fixture(pinned, strategy, join_cost):
    observed = json.loads(json.dumps(observe(strategy, join_cost)))
    assert observed == pinned[f"{strategy}/{join_cost}"]


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(capture(), handle, indent=1, sort_keys=True)
        handle.write("\n")
