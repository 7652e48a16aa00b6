"""Tests for fluid (per-key-range) migration."""

import pytest

from helpers import run_query
from repro.core import (
    FluidMigration,
    FrontierRouter,
    GenMig,
    UnsupportedPlanError,
    select_strategy,
)
from repro.operators import NestedLoopsJoin
from repro.engine import Box
from repro.temporal import element, first_divergence
from scenarios import (
    aggregate_all_box,
    aggregate_filtered_box,
    left_deep_join_box,
    right_deep_join_box,
    three_random_streams,
)

W3 = {"A": 60, "B": 60, "C": 60}


def nested_loops_box() -> Box:
    j1 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="AB")
    j2 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="ABC")
    j1.subscribe(j2, 0)
    return Box(taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)]}, root=j2)


class TestValidation:
    def test_rejects_ranges_below_one(self):
        with pytest.raises(ValueError):
            FluidMigration(ranges=0)

    def test_rejects_unkeyed_joins(self):
        """Nested-loops joins keep un-drainable state (FLM001 at runtime)."""
        streams = three_random_streams()
        with pytest.raises(UnsupportedPlanError):
            run_query(
                streams, W3, nested_loops_box(),
                migrate_at=150, new_box=nested_loops_box(),
                strategy=FluidMigration(),
            )

    def test_rejects_non_join_plans(self):
        streams = three_random_streams()
        two = {name: streams[name] for name in ("A", "B")}
        with pytest.raises(UnsupportedPlanError):
            run_query(
                two, {"A": 60, "B": 60}, aggregate_all_box(),
                migrate_at=150, new_box=aggregate_filtered_box(100),
                strategy=FluidMigration(),
            )


class TestJoinReordering:
    @pytest.mark.parametrize("ranges", [1, 2, 8])
    def test_correct_for_join_reordering(self, ranges):
        streams = three_random_streams()
        base, _ = run_query(streams, W3, left_deep_join_box())
        out, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=FluidMigration(ranges=ranges),
        )
        assert first_divergence(base, out) is None
        assert executor.gate.order_violations == 0

    def test_reverse_direction(self):
        streams = three_random_streams(seed=8)
        base, _ = run_query(streams, W3, right_deep_join_box())
        out, _ = run_query(
            streams, W3, right_deep_join_box(),
            migrate_at=150, new_box=left_deep_join_box(),
            strategy=FluidMigration(ranges=4),
        )
        assert first_divergence(base, out) is None

    @pytest.mark.parametrize("ranges", [1, 4])
    def test_costs_less_than_genmig_on_the_same_plan_pair(self, ranges):
        """Fluid's reason to exist, in the deterministic cost unit of
        Fig. 6: every element runs through exactly one box, where GenMig
        runs both halves of a split element and then coalesces them."""
        streams = three_random_streams()
        totals = {}
        for name, strategy in (
            ("genmig", GenMig()),
            ("fluid", FluidMigration(ranges=ranges)),
        ):
            _, executor = run_query(
                streams, W3, left_deep_join_box(),
                migrate_at=150, new_box=right_deep_join_box(), strategy=strategy,
            )
            totals[name] = executor.meter.total
        assert totals["fluid"] < totals["genmig"]

    def test_report_extras(self):
        """One range-log entry per range, with handover work accounted."""
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=FluidMigration(ranges=4),
        )
        assert len(executor.migration_log) == 1
        report = executor.migration_log[0]
        assert report.strategy == "fluid"
        assert report.extra["ranges"] == 4
        assert len(report.extra["range_log"]) == 4
        assert report.extra["drained"] > 0
        assert report.extra["seeded"] > 0
        assert report.extra["order_violations"] == 0
        # Flips happen in range order at nondecreasing clocks.
        indices = [entry[0] for entry in report.extra["range_log"]]
        assert indices == [0, 1, 2, 3]

    def test_pace_override_flips_all_ranges(self):
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=FluidMigration(ranges=4, pace=2),
        )
        assert len(executor.migration_log[0].extra["range_log"]) == 4


class TestFrontierRouter:
    class _Recorder:
        def __init__(self):
            self.payloads = []
            self.heartbeats = []

        def process(self, element, port=0):
            self.payloads.append((element.payload, port))

        def process_heartbeat(self, t, port=0):
            self.heartbeats.append(t)

    def test_routes_whole_elements_by_range(self):
        old, new = self._Recorder(), self._Recorder()
        router = FrontierRouter(
            key_of=lambda p: p[0], range_of=lambda k: k % 2, migrated={1}
        )
        router.connect_old(old, 0)
        router.connect_new(new, 1)
        router.process(element(0, 1, 5))
        router.process(element(1, 2, 6))
        router.process(element(2, 3, 7))
        assert old.payloads == [((0,), 0), ((2,), 0)]
        assert new.payloads == [((1,), 1)]

    def test_promises_raw_watermark_to_both_sides(self):
        old, new = self._Recorder(), self._Recorder()
        router = FrontierRouter(
            key_of=lambda p: p[0], range_of=lambda k: 0, migrated=set()
        )
        router.connect_old(old)
        router.connect_new(new)
        router.process(element(7, 4, 9))
        router.process_heartbeat(10)
        assert old.heartbeats == [4, 10]
        assert new.heartbeats == [4, 10]

    def test_flip_takes_effect_mid_stream(self):
        old, new = self._Recorder(), self._Recorder()
        migrated = set()
        router = FrontierRouter(
            key_of=lambda p: p[0], range_of=lambda k: k % 2, migrated=migrated
        )
        router.connect_old(old)
        router.connect_new(new)
        router.process(element(1, 1, 2))
        migrated.add(1)
        router.process(element(1, 2, 3))
        assert [p for p, _ in old.payloads] == [(1,)]
        assert [p for p, _ in new.payloads] == [(1,)]


class TestSelection:
    def test_opt_in_via_prefer(self):
        strategy = select_strategy(
            left_deep_join_box(), right_deep_join_box(), prefer="fluid"
        )
        assert isinstance(strategy, FluidMigration)
        verdict = strategy.selection_verdict
        assert verdict.strategies["fluid"].safe

    def test_never_chosen_automatically(self):
        strategy = select_strategy(left_deep_join_box(), right_deep_join_box())
        assert not isinstance(strategy, FluidMigration)

    def test_unsafe_preference_degrades_to_sound_choice(self):
        """FLM001 on nested-loops joins: prefer='fluid' must not crash but
        fall back to a universally sound strategy."""
        strategy = select_strategy(
            nested_loops_box(), nested_loops_box(), prefer="fluid"
        )
        assert not isinstance(strategy, FluidMigration)
        assert not strategy.selection_verdict.strategies["fluid"].safe
