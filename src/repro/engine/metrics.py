"""Time-series instrumentation behind the paper's Figures 4, 5 and 6.

The recorder tracks, per application-time bucket:

* ``output``   — results delivered to the sink (Figure 4 output rate),
* ``memory``   — payload values held in all live operator state, including
  migration operators (Figure 5 memory usage),
* ``cost``     — cumulative CPU cost units consumed (Figure 6 system load),
* ``results`` — cumulative results delivered (Figure 6 y-axis).

Buckets are application-time windows of ``bucket_size`` chronons; with the
default millisecond chronon and ``bucket_size=1000`` a bucket is one second
of application time, matching the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..temporal.time import Time


@dataclass
class MetricsSeries:
    """Dense per-bucket series with named columns."""

    bucket_size: Time
    output: Dict[int, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)
    cost: Dict[int, int] = field(default_factory=dict)
    results: Dict[int, int] = field(default_factory=dict)

    def dense(self, column: Dict[int, int], fill: Optional[int] = 0) -> List[int]:
        """Expand a sparse column to a dense zero-based list.

        ``fill=None`` carries the previous value forward (for cumulative or
        sampled columns such as memory).
        """
        if not column:
            return []
        top = max(column)
        series: List[int] = []
        previous = 0
        for bucket in range(top + 1):
            if bucket in column:
                previous = column[bucket]
                series.append(previous)
            elif fill is None:
                series.append(previous)
            else:
                series.append(fill)
        return series


class MetricsRecorder:
    """Collects the experiment time series during an executor run."""

    def __init__(self, bucket_size: Time = 1000) -> None:
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.series = MetricsSeries(bucket_size)
        self._cumulative_results = 0
        #: Structured events (controller decisions, migration lifecycle)
        #: interleaved with the numeric series; see :meth:`record_event`.
        self.events: List[Dict[str, object]] = []
        # Baseline of the never-reset lifetime kernel-cache counters, so
        # to_dict() can report this query's own compile traffic even when
        # clear_kernel_cache() resets the epoch counters mid-run.
        from ..plans.kernels import kernel_cache_stats

        stats = kernel_cache_stats()
        self._kernel_baseline = {
            key: stats[key]
            for key in ("lifetime_hits", "lifetime_misses", "lifetime_compiled")
        }

    def bucket_of(self, t: Time) -> int:
        """Map an application timestamp to its bucket index."""
        return int(t // self.series.bucket_size)

    def record_output(self, clock: Time, count: int = 1) -> None:
        """Attribute ``count`` sink deliveries to the bucket of ``clock``."""
        bucket = self.bucket_of(clock)
        self.series.output[bucket] = self.series.output.get(bucket, 0) + count
        self._cumulative_results += count
        self.series.results[bucket] = self._cumulative_results

    def sample_memory(self, clock: Time, values: int) -> None:
        """Record the current state memory (payload value count)."""
        self.series.memory[self.bucket_of(clock)] = values

    def sample_cost(self, clock: Time, total_cost: int) -> None:
        """Record the cumulative CPU cost units consumed so far."""
        self.series.cost[self.bucket_of(clock)] = total_cost

    def record_event(
        self, clock: Time, kind: str, query: str = "", **detail: object
    ) -> None:
        """Append one structured event (JSON-serialisable values only).

        Events carry the application timestamp, its bucket (so they can be
        correlated with the numeric series), a ``kind`` tag and arbitrary
        detail columns — the service layer records every re-optimization
        decision and migration lifecycle step through this channel.
        """
        entry: Dict[str, object] = {
            "at": clock,
            "bucket": self.bucket_of(clock),
            "kind": kind,
        }
        if query:
            entry["query"] = query
        entry.update(detail)
        self.events.append(entry)

    # ------------------------------------------------------------------ #
    # Convenience accessors used by the benchmark harness
    # ------------------------------------------------------------------ #

    def output_rate(self) -> List[int]:
        """Dense per-bucket output counts (Figure 4 series)."""
        return self.series.dense(self.series.output, fill=0)

    def memory_usage(self) -> List[int]:
        """Dense per-bucket memory samples (Figure 5 series)."""
        return self.series.dense(self.series.memory, fill=None)

    def cumulative_cost(self) -> List[int]:
        """Dense per-bucket cumulative cost (Figure 6 x-axis)."""
        return self.series.dense(self.series.cost, fill=None)

    def cumulative_results(self) -> List[int]:
        """Dense per-bucket cumulative results (Figure 6 y-axis)."""
        return self.series.dense(self.series.results, fill=None)

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def epoch_state(self) -> dict:
        """Capture the recorder's accumulated series for a checkpoint.

        The kernel-cache baseline is *not* captured: it anchors process-
        lifetime counters that do not survive a restart, so a restored
        recorder re-baselines against the new process.
        """
        return {
            "bucket_size": self.series.bucket_size,
            "output": dict(self.series.output),
            "memory": dict(self.series.memory),
            "cost": dict(self.series.cost),
            "results": dict(self.series.results),
            "cumulative_results": self._cumulative_results,
            "events": [dict(event) for event in self.events],
        }

    def restore_epoch(self, state: dict) -> None:
        """Re-install a series epoch captured by :meth:`epoch_state`."""
        if state["bucket_size"] != self.series.bucket_size:
            raise ValueError(
                f"metrics epoch has bucket_size {state['bucket_size']}, "
                f"recorder uses {self.series.bucket_size}"
            )
        self.series.output = dict(state["output"])
        self.series.memory = dict(state["memory"])
        self.series.cost = dict(state["cost"])
        self.series.results = dict(state["results"])
        self._cumulative_results = state["cumulative_results"]
        self.events = [dict(event) for event in state["events"]]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot of all recorded series.

        ``kernel_cache`` reports the kernel compile-cache traffic *of this
        query*: hits/misses/compiled are deltas of the never-reset
        lifetime counters against the recorder's construction-time
        baseline, so a :func:`repro.plans.kernels.clear_kernel_cache`
        between queries (or mid-run) cannot skew the readout.  The raw
        process-epoch counters ride along under ``process_epoch`` for
        whole-process diagnostics.
        """
        from ..plans.kernels import kernel_cache_stats

        stats = kernel_cache_stats()
        baseline = self._kernel_baseline
        return {
            "bucket_size": self.series.bucket_size,
            "output": self.output_rate(),
            "memory": self.memory_usage(),
            "cost": self.cumulative_cost(),
            "results": self.cumulative_results(),
            "events": list(self.events),
            "kernel_cache": {
                "hits": stats["lifetime_hits"] - baseline["lifetime_hits"],
                "misses": stats["lifetime_misses"] - baseline["lifetime_misses"],
                "compiled": stats["lifetime_compiled"]
                - baseline["lifetime_compiled"],
                "process_epoch": {
                    "hits": stats["hits"],
                    "misses": stats["misses"],
                    "compiled": stats["compiled"],
                },
            },
        }

    def dump(self, path: str) -> None:
        """Write the recorded series as JSON to ``path``."""
        import json

        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def load(cls, path: str) -> dict:
        """Read a previously dumped series file."""
        import json

        with open(path) as f:
            return json.load(f)
