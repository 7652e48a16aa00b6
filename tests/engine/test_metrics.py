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
