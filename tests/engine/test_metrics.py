"""Tests for the metrics recorder behind Figures 4-6."""

import pytest

from repro.engine import MetricsRecorder


class TestBuckets:
    def test_bucket_mapping(self):
        recorder = MetricsRecorder(bucket_size=1000)
        assert recorder.bucket_of(0) == 0
        assert recorder.bucket_of(999) == 0
        assert recorder.bucket_of(1000) == 1

    def test_invalid_bucket_size(self):
        with pytest.raises(ValueError):
            MetricsRecorder(bucket_size=0)


class TestOutputSeries:
    def test_counts_per_bucket(self):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.record_output(5)
        recorder.record_output(7)
        recorder.record_output(25)
        assert recorder.output_rate() == [2, 0, 1]

    def test_cumulative_results(self):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.record_output(5)
        recorder.record_output(25)
        recorder.record_output(26)
        series = recorder.cumulative_results()
        assert series == [1, 1, 3]

    def test_cumulative_results_carry_forward(self):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.record_output(5)
        recorder.record_output(45)
        assert recorder.cumulative_results() == [1, 1, 1, 1, 2]


class TestMemoryAndCost:
    def test_memory_samples_carry_forward(self):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.sample_memory(5, 100)
        recorder.sample_memory(35, 50)
        assert recorder.memory_usage() == [100, 100, 100, 50]

    def test_cost_is_cumulative_by_construction(self):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.sample_cost(5, 10)
        recorder.sample_cost(15, 25)
        assert recorder.cumulative_cost() == [10, 25]

    def test_empty_series(self):
        recorder = MetricsRecorder()
        assert recorder.output_rate() == []
        assert recorder.memory_usage() == []


class TestKernelCacheReadout:
    def test_per_query_deltas_survive_cache_clear(self):
        from repro.plans.kernels import clear_kernel_cache, compile_probe_kernel

        clear_kernel_cache()
        recorder = MetricsRecorder()
        compile_probe_kernel(0, 1)
        compile_probe_kernel(0, 1)
        # Another query clearing the process-wide cache must not erase
        # this recorder's readout: the deltas ride the lifetime counters.
        clear_kernel_cache()
        cache = recorder.to_dict()["kernel_cache"]
        assert cache["compiled"] == 1
        assert cache["misses"] == 1
        assert cache["hits"] == 1
        assert cache["process_epoch"] == {"hits": 0, "misses": 0, "compiled": 0}

    def test_pre_construction_traffic_excluded(self):
        from repro.plans.kernels import clear_kernel_cache, compile_probe_kernel

        clear_kernel_cache()
        compile_probe_kernel(1, 0)
        recorder = MetricsRecorder()  # baseline taken *after* the compile
        cache = recorder.to_dict()["kernel_cache"]
        assert cache == {
            "hits": 0,
            "misses": 0,
            "compiled": 0,
            "process_epoch": {"hits": 0, "misses": 1, "compiled": 1},
        }


class TestPersistence:
    def test_to_dict_round_trip(self, tmp_path):
        recorder = MetricsRecorder(bucket_size=10)
        recorder.record_output(5)
        recorder.sample_memory(5, 100)
        recorder.sample_cost(5, 42)
        path = tmp_path / "series.json"
        recorder.dump(str(path))
        loaded = MetricsRecorder.load(str(path))
        assert loaded == recorder.to_dict()
        assert loaded["bucket_size"] == 10
        assert loaded["output"] == [1]
        assert loaded["memory"] == [100]
        assert loaded["cost"] == [42]


class TestShardAggregation:
    """``MetricsRecorder.aggregate``: per-shard snapshots sum to one
    fleet view with single-process column semantics."""

    @staticmethod
    def part(outputs=(), memory=(), cost=(), bucket_size=10):
        recorder = MetricsRecorder(bucket_size=bucket_size)
        for at in outputs:
            recorder.record_output(at)
        for at, value in memory:
            recorder.sample_memory(at, value)
        for at, value in cost:
            recorder.sample_cost(at, value)
        return recorder.to_dict()

    def test_output_column_sums_without_carry(self):
        merged = MetricsRecorder.aggregate(
            [self.part(outputs=[5, 15]), self.part(outputs=[5])]
        )
        assert merged["shards"] == 2
        assert merged["output"] == [2, 1]

    def test_carry_forward_columns_pad_with_last_value(self):
        """A shard whose series ends early still *holds* its last memory
        level — shorter series pad with it, not with zero."""
        merged = MetricsRecorder.aggregate(
            [
                self.part(memory=[(5, 100), (25, 120)]),
                self.part(memory=[(5, 7)]),
            ]
        )
        assert merged["memory"] == [107, 107, 127]

    def test_events_interleave_by_time(self):
        left = MetricsRecorder(bucket_size=10)
        left.record_event(30, "considered", query="q")
        right = MetricsRecorder(bucket_size=10)
        right.record_event(10, "kept", query="q")
        merged = MetricsRecorder.aggregate([left.to_dict(), right.to_dict()])
        assert [event["at"] for event in merged["events"]] == [10, 30]

    def test_meter_entries_sum_by_category(self):
        parts = [self.part(), self.part()]
        parts[0]["meter"] = {"total": 5, "by_category": {"join": 5}}
        parts[1]["meter"] = {"total": 3, "by_category": {"join": 2, "select": 1}}
        merged = MetricsRecorder.aggregate(parts)
        assert merged["meter"] == {
            "total": 8,
            "by_category": {"join": 7, "select": 1},
        }

    def test_kernel_cache_keeps_per_shard_detail(self):
        merged = MetricsRecorder.aggregate([self.part(), self.part()])
        assert len(merged["kernel_cache"]["per_shard"]) == 2

    def test_mixed_bucket_sizes_rejected(self):
        with pytest.raises(ValueError, match="bucket size"):
            MetricsRecorder.aggregate(
                [self.part(bucket_size=10), self.part(bucket_size=20)]
            )

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            MetricsRecorder.aggregate([])
