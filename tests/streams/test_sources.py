"""Tests for the workload generators."""

import pytest

from feeds import (
    bursty_stream,
    explicit_stream,
    paper_workload,
    skewed_arrival,
    zipf_stream,
)
from repro.streams import timestamped_stream, uniform_stream


class TestUniformStream:
    def test_count_and_bounds(self):
        stream = uniform_stream(100, 0, 500, seed=1)
        assert len(stream) == 100
        assert all(0 <= e.payload[0] <= 500 for e in stream)

    def test_unit_intervals(self):
        stream = uniform_stream(10, 0, 5, seed=1)
        assert all(e.end - e.start == 1 for e in stream)

    def test_rate_spacing(self):
        stream = uniform_stream(11, 0, 5, rate=100.0, time_scale=1000, seed=1)
        # 100 elements/second at millisecond chronons: one every 10 ms.
        assert stream[1].start - stream[0].start == 10
        assert stream[10].start == 100

    def test_deterministic_by_seed(self):
        a = uniform_stream(50, 0, 100, seed=7)
        b = uniform_stream(50, 0, 100, seed=7)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = uniform_stream(50, 0, 100, seed=7)
        b = uniform_stream(50, 0, 100, seed=8)
        assert list(a) != list(b)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            uniform_stream(10, 0, 5, rate=0)


class TestZipfStream:
    def test_skew_prefers_small_values(self):
        stream = zipf_stream(2000, universe=50, exponent=1.5, seed=3)
        values = [e.payload[0] for e in stream]
        head = sum(1 for v in values if v < 5)
        tail = sum(1 for v in values if v >= 45)
        assert head > tail * 3

    def test_universe_respected(self):
        stream = zipf_stream(100, universe=10, seed=3)
        assert all(0 <= e.payload[0] < 10 for e in stream)

    def test_invalid_universe(self):
        with pytest.raises(ValueError):
            zipf_stream(10, universe=0)


class TestBurstyStream:
    def test_burst_structure(self):
        stream = bursty_stream(bursts=3, burst_size=4, burst_gap=100, low=0, high=9)
        assert len(stream) == 12
        starts = [e.start for e in stream]
        assert starts[:4] == [0, 0, 0, 0]
        assert starts[4:8] == [100, 100, 100, 100]

    def test_finitely_many_per_timestamp(self):
        stream = bursty_stream(bursts=2, burst_size=5, burst_gap=10, low=0, high=1)
        per_ts = {}
        for e in stream:
            per_ts[e.start] = per_ts.get(e.start, 0) + 1
        assert all(count == 5 for count in per_ts.values())


class TestExplicitStreams:
    def test_explicit_stream(self):
        stream = explicit_stream([("a", 0, 5), ("b", 2, 9)])
        assert stream[0].interval.end == 5

    def test_timestamped_conversion_rule(self):
        stream = timestamped_stream([("a", 7)])
        assert stream[0].start == 7
        assert stream[0].end == 8


class TestPaperWorkload:
    def test_four_streams(self):
        workload = paper_workload(count=100)
        assert set(workload) == {"A", "B", "C", "D"}

    def test_value_bounds_match_section5(self):
        workload = paper_workload(count=500)
        for name in ("A", "B"):
            assert all(0 <= e.payload[0] <= 500 for e in workload[name])
        for name in ("C", "D"):
            assert all(0 <= e.payload[0] <= 1000 for e in workload[name])
        # C and D genuinely use the larger domain.
        assert any(e.payload[0] > 500 for e in workload["C"])

    def test_rate_100_per_second(self):
        workload = paper_workload(count=200)
        stream = workload["A"]
        assert stream[-1].start - stream[0].start == 199 * 10


class TestSkewedArrival:
    def test_shifts_timestamps(self):
        base = timestamped_stream([("a", 0), ("b", 10)])
        shifted = skewed_arrival(base, 25)
        assert [e.start for e in shifted] == [25, 35]

    def test_preserves_payloads(self):
        base = timestamped_stream([("a", 0)])
        assert skewed_arrival(base, 5)[0].payload == ("a",)
