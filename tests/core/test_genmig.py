"""Tests for GenMig (Algorithm 1) and its shortened-T_split variant."""

import pytest

from helpers import run_query
from repro.core import GenMig, ShortenedGenMig
from repro.engine import RoundRobinScheduler
from repro.streams import skewed_arrival, timestamped_stream
from repro.temporal import EPSILON, first_divergence
from scenarios import (
    aggregate_all_box,
    aggregate_filtered_box,
    difference_box,
    difference_filtered_box,
    distinct_over_join_box,
    join_over_distinct_box,
    left_deep_join_box,
    right_deep_join_box,
    three_random_streams,
    two_random_streams,
)

W3 = {"A": 60, "B": 60, "C": 60}
W2 = {"A": 50, "B": 50}


def migrate_and_compare(streams, windows, old_factory, new_factory, strategy,
                        migrate_at):
    base, _ = run_query(streams, windows, old_factory())
    out, executor = run_query(
        streams, windows, old_factory(),
        migrate_at=migrate_at, new_box=new_factory(), strategy=strategy,
    )
    assert first_divergence(base, out) is None
    assert executor.gate.order_violations == 0
    return executor.migration_log[0], executor


class TestCorrectnessAcrossPlanShapes:
    """GenMig is the *general* strategy: every stateful operator works."""

    def test_join_reordering(self):
        migrate_and_compare(
            three_random_streams(), W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=150,
        )

    def test_reverse_join_reordering(self):
        migrate_and_compare(
            three_random_streams(seed=5), W3, right_deep_join_box, left_deep_join_box,
            GenMig(), migrate_at=150,
        )

    def test_distinct_pushdown(self):
        migrate_and_compare(
            two_random_streams(), W2, distinct_over_join_box, join_over_distinct_box,
            GenMig(), migrate_at=120,
        )

    def test_distinct_pullup(self):
        migrate_and_compare(
            two_random_streams(seed=11), W2, join_over_distinct_box,
            distinct_over_join_box, GenMig(), migrate_at=120,
        )

    def test_aggregation_plans(self):
        migrate_and_compare(
            two_random_streams(seed=12), W2,
            aggregate_all_box, lambda: aggregate_filtered_box(100),
            GenMig(), migrate_at=120,
        )

    def test_difference_plans(self):
        migrate_and_compare(
            two_random_streams(seed=13), W2,
            difference_box, lambda: difference_filtered_box(100),
            GenMig(), migrate_at=120,
        )

    def test_identity_migration(self):
        """Migrating to a structurally identical plan is always safe."""
        migrate_and_compare(
            three_random_streams(seed=14), W3, left_deep_join_box,
            left_deep_join_box, GenMig(), migrate_at=150,
        )


class TestSplitTimeAndDuration:
    def test_t_split_formula(self):
        report, executor = migrate_and_compare(
            three_random_streams(), W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=150,
        )
        # T_split = max(t_Si) + w + 1 - epsilon; t_Si <= trigger time.
        assert report.t_split <= 150 + 60 + 1 - EPSILON
        assert report.t_split > 150  # beyond the migration start

    def test_t_split_from_latest_starts_and_largest_window(self):
        # max(t_Si) + w + b - epsilon (Remark 3) with latest starts A=100,
        # B=90: B's window (20) dominates, A's start (100) is the latest.
        streams = {
            "A": timestamped_stream([(1, 50), (1, 100), (2, 150)], name="A"),
            "B": timestamped_stream([(1, 60), (1, 90), (2, 140)], name="B"),
        }
        windows = {"A": 10, "B": 20}
        report, _ = migrate_and_compare(
            streams, windows, distinct_over_join_box, join_over_distinct_box,
            GenMig(), migrate_at=101,
        )
        assert report.t_split == 120.5

    def test_t_split_is_sub_chronon(self):
        report, _ = migrate_and_compare(
            three_random_streams(), W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=150,
        )
        assert report.t_split != int(report.t_split)

    def test_duration_about_one_window(self):
        """Section 4.4: GenMig takes ~w, not 2w."""
        report, _ = migrate_and_compare(
            three_random_streams(), W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=150,
        )
        w = 60
        assert w - 10 <= report.duration <= w + 10

    def test_migration_replaces_box(self):
        streams = three_random_streams()
        new_box = right_deep_join_box()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=new_box, strategy=GenMig(),
        )
        assert executor.box is new_box

    def test_old_box_empty_after_migration(self):
        streams = three_random_streams()
        old_box = left_deep_join_box()
        from repro.engine import QueryExecutor
        from repro.streams import CollectorSink

        executor = QueryExecutor(streams, W3, old_box)
        executor.add_sink(CollectorSink())
        executor.schedule_migration(150, right_deep_join_box(), GenMig())
        executor.run()
        assert old_box.state_value_count() == 0


class TestMonitoringPhase:
    def test_migration_waits_for_all_inputs(self):
        """Algorithm 1 monitors until t_Si is set for each input."""
        streams = three_random_streams()
        # C only starts delivering at t=300.
        streams = dict(streams)
        streams["C"] = skewed_arrival(streams["C"], 300)
        report, _ = migrate_and_compare(
            streams, W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=100,
        )
        # Armed only once C delivered: started_at >= 300-ish.
        assert report.started_at >= 295
        assert report.triggered_at < 105

    def test_round_robin_scheduling_supported(self):
        """Remark 2: per-input start times work without global ordering."""
        streams = three_random_streams(seed=15)
        base, _ = run_query(streams, W3, left_deep_join_box())
        out, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(), strategy=GenMig(),
            scheduler=RoundRobinScheduler(batch=3),
        )
        assert first_divergence(base, out) is None
        assert executor.gate.order_violations == 0


class TestShortenedGenMig:
    def test_correct_on_all_plan_shapes(self):
        for old, new, streams, windows in (
            (left_deep_join_box, right_deep_join_box, three_random_streams(), W3),
            (distinct_over_join_box, join_over_distinct_box, two_random_streams(), W2),
        ):
            migrate_and_compare(streams, windows, old, new,
                                ShortenedGenMig(), migrate_at=120)

    def test_arm_with_no_input_seen_uses_the_first_half_chronon(self):
        """Silent inputs arm at end of stream with no end timestamp seen;
        the split time still lies in the time domain."""
        streams = {"A": timestamped_stream([]), "B": timestamped_stream([])}
        _, executor = run_query(
            streams, W2, left_two_way(),
            migrate_at=0, new_box=left_two_way(), strategy=ShortenedGenMig(),
        )
        assert executor.migration_log[0].t_split == 0.5

    def test_no_gain_for_window_fed_boxes(self):
        """Directly behind window operators both bounds coincide."""
        streams = three_random_streams()
        standard, _ = migrate_and_compare(
            streams, W3, left_deep_join_box, right_deep_join_box,
            GenMig(), migrate_at=150,
        )
        short, _ = migrate_and_compare(
            streams, W3, left_deep_join_box, right_deep_join_box,
            ShortenedGenMig(), migrate_at=150,
        )
        assert short.t_split == standard.t_split

    def test_gain_for_short_interval_inputs(self):
        """A box consuming an intermediate stream with short validities
        migrates much faster under Optimization 2."""
        import random

        rng = random.Random(19)
        # Pre-windowed intermediate stream: validities of length <= 8,
        # far below the declared worst-case bound of 40.
        from repro.streams import PhysicalStream
        from repro.temporal import element

        inter = PhysicalStream(
            [
                element(rng.randint(0, 4), t, t + rng.randint(2, 8))
                for t in range(0, 400, 3)
            ]
        )
        other = timestamped_stream([(rng.randint(0, 4), t) for t in range(1, 400, 4)])
        streams = {"A": inter, "B": other}
        windows = {"A": 0, "B": 0}
        base, _ = run_query(streams, windows, left_two_way(), interval_bound=40)
        out, executor = run_query(
            streams, windows, left_two_way(),
            migrate_at=150, new_box=left_two_way(), strategy=ShortenedGenMig(),
            interval_bound=40,
        )
        assert first_divergence(base, out) is None
        report = executor.migration_log[0]
        # Standard bound would be ~max(t_Si) + 40; the monitored end bound
        # is much smaller.
        assert report.t_split < report.started_at + 20
        assert report.duration < 20


def left_two_way():
    from repro.engine import Box
    from repro.operators import equi_join

    join = equi_join(0, 0)
    return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=join)
