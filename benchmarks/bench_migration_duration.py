"""EXP-5 — Section 4.4's analytic claims, measured.

The paper derives: GenMig's migration lasts about ``w`` time units (the
time for every input to pass ``T_split``), while Parallel Track needs about
``2w`` for multi-join trees (one window of useful parallel work plus one
window of purging).  Moving States — fluid migration at one range — hands
the whole state over the moment it starts, paying a seeding burst, and
then keeps the old box attached for one Lemma 1 horizon to deliver what it
has staged.  This benchmark measures all strategies on the Section 5
scenario and prints the duration table.
"""

import pytest

from workload import run_experiment, scaled_config, verify_against_baseline

STRATEGIES = ("genmig", "genmig-rp", "parallel-track", "fluid-1")


def run_all():
    config = scaled_config()
    return {name: run_experiment(name, config) for name in STRATEGIES}


def test_migration_durations(benchmark):
    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    config = scaled_config()
    w = config.window

    print("\n== Section 4.4: migration durations (application time) ==")
    print(f"{'strategy':16s}{'duration':>10s}{'in windows':>12s}  extras")
    for name, run in runs.items():
        report = run.report
        print(f"{name:16s}{report.duration:>10}{report.duration / w:>12.2f}  {report.extra}")

    for run in runs.values():
        verify_against_baseline(run)

    durations = {name: run.report.duration for name, run in runs.items()}
    # GenMig: about one window.
    assert 0.9 * w <= durations["genmig"] <= 1.25 * w
    assert 0.9 * w <= durations["genmig-rp"] <= 1.25 * w
    # PT: about two windows.
    assert 1.8 * w <= durations["parallel-track"] <= 2.4 * w
    # Fluid at one range: one flip at the start, paid for by a seeding
    # burst, then about one window until the old box is detached.
    whole = runs["fluid-1"].report
    assert [at for _, at, _ in whole.extra["range_log"]] == [str(whole.started_at)]
    assert runs["fluid-1"].meter.by_category["fluid-seed"] > 0
    assert 0.9 * w <= durations["fluid-1"] <= 1.25 * w
