"""Tests for the Parallel Track baseline — including its published defect."""

import pytest

from helpers import run_query
from repro.core import GenMig, ParallelTrack, UnsupportedPlanError
from repro.engine.box import Box
from repro.operators import theta_join
from repro.temporal.element import NEW
from repro.streams import timestamped_stream
from repro.temporal import (
    first_divergence,
    first_duplicate_instant,
    has_snapshot_duplicates,
)
from scenarios import (
    distinct_over_join_box,
    join_over_distinct_box,
    left_deep_join_box,
    right_deep_join_box,
    three_random_streams,
    two_random_streams,
)

W3 = {"A": 60, "B": 60, "C": 60}


class TestJoinReordering:
    """PT is sound for join trees — and takes ~2w instead of ~w."""

    def test_correct_for_join_reordering(self):
        streams = three_random_streams()
        base, _ = run_query(streams, W3, left_deep_join_box())
        out, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(),
        )
        assert first_divergence(base, out) is None
        assert len(executor.migration_log) == 1

    def test_duration_about_two_windows(self):
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(check_interval=2),
        )
        report = executor.migration_log[0]
        w = 60
        assert 2 * w - 15 <= report.duration <= 2 * w + 15

    def test_slower_than_genmig(self):
        streams = three_random_streams()

        def duration(strategy):
            _, executor = run_query(
                streams, W3, left_deep_join_box(),
                migrate_at=150, new_box=right_deep_join_box(), strategy=strategy,
            )
            return executor.migration_log[0].duration

        assert duration(ParallelTrack(check_interval=2)) > duration(GenMig()) * 1.5

    def test_buffer_flush_causes_ordering_burst(self):
        """The Figure 4 burst: PT's flushed buffer interleaves with
        already-delivered results."""
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(),
        )
        report = executor.migration_log[0]
        assert report.extra["flushed"] > 0
        assert executor.gate.order_violations > 0

    def test_new_flagged_old_box_results_dropped(self):
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(),
        )
        report = executor.migration_log[0]
        # All-new results in the old box duplicate the new box's and must
        # have been discarded.
        assert report.extra["old_results_dropped"] > 0
        assert report.extra["old_results_dropped"] == report.extra["flushed"]

    def test_output_carries_no_flags(self):
        streams = three_random_streams()
        out, _ = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(),
        )
        assert all(e.flag is None for e in out)


class _ScanCheckedParallelTrack(ParallelTrack):
    """PT whose completion check is held, every time it runs, to the scan
    of every held element through ``state_of_port``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.answers = []

    def _old_elements_remain(self):
        answer = super()._old_elements_remain()
        scan = self.old_box.has_staged_output() or any(
            element.flag != NEW
            and (element.flag is not None or element.start < self._migration_start)
            for op in self.old_box.operators
            for port in range(op.arity)
            for element in op.state_of_port(port)
        )
        assert answer == scan
        self.answers.append(answer)
        return answer


def _theta_box(order):
    """The left- or right-deep 3-way tree over nested-loops joins."""
    def same_key(left, right):
        return left[0] == right[0]

    lower = theta_join(same_key, name="lower")
    upper = theta_join(same_key, name="upper")
    if order == "left-deep":
        lower.subscribe(upper, 0)
        taps = {"A": [(lower, 0)], "B": [(lower, 1)], "C": [(upper, 1)]}
    else:
        lower.subscribe(upper, 1)
        taps = {"A": [(upper, 0)], "B": [(lower, 0)], "C": [(lower, 1)]}
    return Box(taps=taps, root=upper, label=order)


class TestCompletionCheck:
    @pytest.mark.parametrize("build", ["hash", "nested-loops"])
    def test_completes_where_a_scan_of_every_held_element_says(self, build):
        if build == "hash":
            old, new = left_deep_join_box(), right_deep_join_box()
        else:
            old, new = _theta_box("left-deep"), _theta_box("right-deep")
        strategy = _ScanCheckedParallelTrack(check_interval=2)
        run_query(three_random_streams(), W3, old, migrate_at=150, new_box=new, strategy=strategy)
        assert True in strategy.answers and strategy.answers[-1] is False

    def test_forced_distinct_plan_completes_where_the_scan_says(self):
        strategy = _ScanCheckedParallelTrack(force=True, check_interval=2)
        run_query(
            two_random_streams(), {"A": 50, "B": 50}, distinct_over_join_box(),
            migrate_at=100, new_box=join_over_distinct_box(), strategy=strategy,
        )
        assert True in strategy.answers and strategy.answers[-1] is False

    def test_forced_distinct_plan_completes_under_steady_input(self):
        # A match every window keeps the distinct's coverage non-empty to
        # the end; that coverage starts after the migration and carries no
        # flag, so it must not hold the migration open.
        a = [("a" if t % 100 == 0 else "z", t) for t in range(0, 2000, 10)]
        b = [("a" if t % 100 == 30 else "y", t) for t in range(0, 2000, 10)]
        streams = {"A": timestamped_stream(a, name="A"), "B": timestamped_stream(b, name="B")}
        _, executor = run_query(
            streams, {"A": 100, "B": 100}, distinct_over_join_box(),
            migrate_at=200, new_box=join_over_distinct_box(),
            strategy=ParallelTrack(force=True),
        )
        report = executor.migration_log[0]
        assert report.completed_at <= report.started_at + 3 * 100 < 1990


class TestSafeguard:
    def test_refuses_duplicate_elimination_plans(self):
        streams = three_random_streams()
        with pytest.raises(UnsupportedPlanError):
            run_query(
                dict(list(streams.items())[:2]), {"A": 60, "B": 60},
                distinct_over_join_box(),
                migrate_at=100, new_box=join_over_distinct_box(),
                strategy=ParallelTrack(),
            )

    def test_refuses_aggregation_plans(self):
        from scenarios import aggregate_all_box, aggregate_filtered_box, two_random_streams

        with pytest.raises(UnsupportedPlanError):
            run_query(
                two_random_streams(), {"A": 50, "B": 50}, aggregate_all_box(),
                migrate_at=100, new_box=aggregate_filtered_box(100),
                strategy=ParallelTrack(),
            )

    def test_force_overrides_safeguard(self):
        from scenarios import two_random_streams

        out, executor = run_query(
            two_random_streams(), {"A": 50, "B": 50}, distinct_over_join_box(),
            migrate_at=100, new_box=join_over_distinct_box(),
            strategy=ParallelTrack(force=True),
        )
        assert len(executor.migration_log) == 1


class TestSection3Defect:
    """The paper's central negative result, on Example 1's exact data."""

    def example_streams(self):
        return (
            {"A": timestamped_stream([("a", 50), ("a", 70)], name="A"),
             "B": timestamped_stream([("a", 20), ("a", 90)], name="B")},
            {"A": 100, "B": 100},
        )

    def test_pt_produces_duplicate_snapshots_with_distinct(self):
        streams, windows = self.example_streams()
        out, _ = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=40, new_box=join_over_distinct_box(),
            strategy=ParallelTrack(force=True),
        )
        assert has_snapshot_duplicates(out)

    def test_pt_output_diverges_from_unmigrated_run(self):
        streams, windows = self.example_streams()
        base, _ = run_query(streams, windows, distinct_over_join_box())
        out, _ = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=40, new_box=join_over_distinct_box(),
            strategy=ParallelTrack(force=True),
        )
        assert first_divergence(base, out) is not None

    def test_genmig_is_correct_on_the_same_scenario(self):
        streams, windows = self.example_streams()
        base, _ = run_query(streams, windows, distinct_over_join_box())
        out, _ = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=40, new_box=join_over_distinct_box(), strategy=GenMig(),
        )
        assert first_divergence(base, out) is None
        assert not has_snapshot_duplicates(out)

    def test_correct_output_of_example1(self):
        """The unmigrated plan produces the table the paper labels correct:
        tuple 'a' valid continuously on [50, 171)."""
        streams, windows = self.example_streams()
        base, _ = run_query(streams, windows, distinct_over_join_box())
        from repro.temporal import coalesce_stream, element

        assert coalesce_stream(base) == [element(("a", "a"), 50, 171)]
