"""Shared machinery for the paper-figure benchmarks.

Reproduces the Section 5 experimental setup — four uniform streams A-D at
100 elements/second, a global time-based window, a 4-way nested-loops
equi-join migrated from the inefficient left-deep tree ``((A⋈B)⋈C)⋈D``
to the right-deep tree ``A⋈(B⋈(C⋈D))`` — scaled down so the benchmarks run
in seconds of wall-clock time while preserving every *shape* the paper
reports (see EXPERIMENTS.md for the scaling table).  Set the environment
variable ``REPRO_BENCH_SCALE=paper`` to run the full Section 5 parameters
(5000 elements/stream, 10 s window; several minutes of wall time).

Runs are cached per configuration so that e.g. the Figure 4 and Figure 5
benchmarks measure the same execution from two instruments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core import FluidMigration, GenMig, ParallelTrack, ReferencePointGenMig
from repro.engine import Box, MetricsRecorder, QueryExecutor
from repro.operators import CostMeter, NestedLoopsJoin
from repro.streams import RateSink, uniform_stream
from repro.temporal import first_divergence


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Section 5 style run."""

    count: int            # elements per stream
    rate: float           # elements per second
    window: int           # global time window (chronons; 1000 = 1 s)
    migrate_at: int       # migration trigger (application time)
    ab_values: int        # A, B payloads drawn from [0, ab_values]
    cd_values: int        # C, D payloads drawn from [0, cd_values]
    join_cost: int = 1    # cost units per join predicate evaluation
    bucket: int = 200     # metrics bucket (application time)
    seed: int = 42

    @property
    def seconds_of_data(self) -> float:
        return self.count / self.rate


def scaled_config(join_cost: int = 1) -> ExperimentConfig:
    """The default (scaled) or full (``REPRO_BENCH_SCALE=paper``) config."""
    if os.environ.get("REPRO_BENCH_SCALE") == "paper":
        return ExperimentConfig(
            count=5000, rate=100.0, window=10_000, migrate_at=20_000,
            ab_values=500, cd_values=1000, join_cost=join_cost, bucket=1000,
        )
    return ExperimentConfig(
        count=1200, rate=100.0, window=2_000, migrate_at=4_000,
        ab_values=100, cd_values=200, join_cost=join_cost, bucket=200,
    )


def four_streams(config: ExperimentConfig):
    bounds = {
        "A": config.ab_values, "B": config.ab_values,
        "C": config.cd_values, "D": config.cd_values,
    }
    return {
        name: uniform_stream(
            config.count, 0, high, rate=config.rate, seed=config.seed + i, name=name
        )
        for i, (name, high) in enumerate(bounds.items())
    }


def _join(name: str, join_cost: int) -> NestedLoopsJoin:
    return NestedLoopsJoin(
        lambda l, r: l[0] == r[0], predicate_cost=join_cost, name=name
    )


def left_deep_box(config: ExperimentConfig) -> Box:
    """The paper's inefficient initial plan: ((A ⋈ B) ⋈ C) ⋈ D."""
    j1 = _join("AB", config.join_cost)
    j2 = _join("ABC", config.join_cost)
    j3 = _join("ABCD", config.join_cost)
    j1.subscribe(j2, 0)
    j2.subscribe(j3, 0)
    return Box(
        taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)], "D": [(j3, 1)]},
        root=j3,
        label="((A⋈B)⋈C)⋈D",
    )


def right_deep_box(config: ExperimentConfig) -> Box:
    """The efficient target plan: A ⋈ (B ⋈ (C ⋈ D))."""
    j1 = _join("CD", config.join_cost)
    j2 = _join("BCD", config.join_cost)
    j3 = _join("ABCD", config.join_cost)
    j1.subscribe(j2, 1)
    j2.subscribe(j3, 1)
    return Box(
        taps={"A": [(j3, 0)], "B": [(j2, 0)], "C": [(j1, 0)], "D": [(j1, 1)]},
        root=j3,
        label="A⋈(B⋈(C⋈D))",
    )


STRATEGIES: Dict[str, Optional[Callable[[], object]]] = {
    "none": None,
    "genmig": GenMig,
    "genmig-rp": ReferencePointGenMig,
    "parallel-track": lambda: ParallelTrack(check_interval=20),
    # Moving States: the whole state handed over at once.
    "fluid-1": lambda: FluidMigration(ranges=1),
}


@dataclass
class ExperimentRun:
    """Everything one run produced."""

    config: ExperimentConfig
    strategy: str
    sink: RateSink
    executor: QueryExecutor
    metrics: MetricsRecorder
    meter: CostMeter

    @property
    def report(self):
        return self.executor.migration_log[0] if self.executor.migration_log else None


_CACHE: Dict[Tuple, ExperimentRun] = {}


def run_experiment(strategy: str, config: Optional[ExperimentConfig] = None) -> ExperimentRun:
    """Run (or fetch the cached) Section 5 experiment for one strategy."""
    config = config or scaled_config()
    key = (strategy, config)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    streams = four_streams(config)
    windows = {name: config.window for name in streams}
    metrics = MetricsRecorder(bucket_size=config.bucket)
    meter = CostMeter()
    executor = QueryExecutor(
        streams, windows, left_deep_box(config), metrics=metrics, meter=meter
    )
    sink = RateSink(bucket_size=config.bucket, clock=lambda: executor.clock)
    executor.add_sink(sink)
    factory = STRATEGIES[strategy]
    if factory is not None:
        executor.schedule_migration(config.migrate_at, right_deep_box(config), factory())
    executor.run()
    run = ExperimentRun(config, strategy, sink, executor, metrics, meter)
    _CACHE[key] = run
    return run


def verify_against_baseline(run: ExperimentRun) -> None:
    """Assert the migrated run is snapshot-equivalent to the unmigrated one."""
    baseline = run_experiment("none", run.config)
    divergence = first_divergence(baseline.sink.elements, run.sink.elements)
    assert divergence is None, f"{run.strategy} diverges at t={divergence}"


def print_series(title: str, columns: Dict[str, list], bucket: int) -> None:
    """Print aligned per-bucket series — the rows behind a paper figure."""
    print(f"\n== {title} ==")
    names = list(columns)
    width = max(len(name) for name in names) + 2
    length = max(len(series) for series in columns.values())
    header = "t[s]".ljust(8) + "".join(name.rjust(width) for name in names)
    print(header)
    for index in range(length):
        t = index * bucket / 1000.0
        row = f"{t:<8.1f}"
        for name in names:
            series = columns[name]
            value = series[index] if index < len(series) else ""
            row += str(value).rjust(width)
        print(row)
