"""Tests for the query executor."""

import pytest

from helpers import probe_instants, run_query, windowed
from repro.analysis.oracle import RelationalOracle
from repro.core import GenMig
from repro.engine import (
    Box,
    MetricsRecorder,
    MigrationError,
    QueryExecutor,
    RoundRobinScheduler,
)
from repro.operators import DuplicateElimination, Select, equi_join
from repro.streams import CollectorSink, timestamped_stream
from repro.temporal import Multiset, element, snapshot


def select_box(threshold=5):
    op = Select(lambda p: p[0] < threshold, name="select")
    return Box(taps={"A": [(op, 0)]}, root=op, label="select")


def join_box():
    join = equi_join(0, 0)
    return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=join)


class TestConstruction:
    def test_missing_window_rejected(self):
        with pytest.raises(ValueError):
            QueryExecutor({"A": timestamped_stream([])}, {}, select_box())

    def test_invalid_interval_bound(self):
        with pytest.raises(ValueError):
            QueryExecutor(
                {"A": timestamped_stream([])}, {"A": 10}, select_box(), interval_bound=0
            )

    def test_global_window_is_max(self):
        executor = QueryExecutor(
            {"A": timestamped_stream([]), "B": timestamped_stream([])},
            {"A": 10, "B": 30},
            join_box(),
        )
        assert executor.global_window == 30

    def test_global_heartbeats_default_follows_scheduler(self):
        streams = {"A": timestamped_stream([])}
        assert QueryExecutor(streams, {"A": 1}, select_box()).global_heartbeats
        assert not QueryExecutor(
            streams, {"A": 1}, select_box(), scheduler=RoundRobinScheduler()
        ).global_heartbeats


class TestExecution:
    def test_windows_applied_at_ingestion(self):
        out, _ = run_query(
            {"A": timestamped_stream([(3, 10)])}, {"A": 25}, select_box()
        )
        assert out == [element(3, 10, 36)]

    def test_selection_query(self):
        stream = timestamped_stream([(1, 0), (9, 1), (2, 2)])
        out, _ = run_query({"A": stream}, {"A": 5}, select_box())
        assert [e.payload for e in out] == [(1,), (2,)]

    def test_join_query_matches_reference(self):
        import random

        rng = random.Random(5)
        streams = {
            "A": timestamped_stream([(rng.randint(0, 4), t) for t in range(0, 100, 3)]),
            "B": timestamped_stream([(rng.randint(0, 4), t) for t in range(1, 100, 4)]),
        }
        out, _ = run_query(streams, {"A": 20, "B": 20}, join_box())
        wa = windowed(streams["A"], 20)
        wb = windowed(streams["B"], 20)
        for t in probe_instants(wa, wb, out):
            expected = snapshot(wa, t).join(snapshot(wb, t), lambda a, b: a[0] == b[0])
            assert snapshot(out, t) == expected

    def test_run_twice_rejected(self):
        _, executor = run_query({"A": timestamped_stream([])}, {"A": 1}, select_box())
        with pytest.raises(RuntimeError):
            executor.run()

    def test_source_watermarks_and_max_ends_tracked(self):
        stream = timestamped_stream([(1, 5), (1, 9)])
        sink = CollectorSink()
        executor = QueryExecutor({"A": stream}, {"A": 10}, select_box())
        executor.add_sink(sink)
        recorded = {}
        executor.schedule(9, lambda: recorded.update(
            wm=executor.source_watermarks["A"], me=executor.source_max_ends["A"]
        ))
        executor.run()
        assert recorded["wm"] == 5
        assert recorded["me"] == 16  # 5 + 1 + 10

    def test_round_robin_scheduler_executes_correctly(self):
        """Per-port ordering suffices: results match global-order run."""
        import random

        rng = random.Random(8)
        streams = {
            "A": timestamped_stream([(rng.randint(0, 3), t) for t in range(0, 80, 2)]),
            "B": timestamped_stream([(rng.randint(0, 3), t) for t in range(1, 80, 3)]),
        }
        base, _ = run_query(streams, {"A": 15, "B": 15}, join_box())
        skewed, _ = run_query(
            streams, {"A": 15, "B": 15}, join_box(),
            scheduler=RoundRobinScheduler(batch=4),
        )
        from repro.temporal import first_divergence

        assert first_divergence(base, skewed) is None


class TestScheduledActions:
    def test_action_fires_when_clock_reaches_time(self):
        stream = timestamped_stream([(1, 0), (1, 10), (1, 20)])
        executor = QueryExecutor({"A": stream}, {"A": 5}, select_box())
        fired_at = []
        executor.schedule(10, lambda: fired_at.append(executor.clock))
        executor.run()
        assert fired_at == [0]  # fires just before ingesting t=10

    def test_actions_fire_in_time_order(self):
        stream = timestamped_stream([(1, t) for t in range(0, 50, 10)])
        executor = QueryExecutor({"A": stream}, {"A": 5}, select_box())
        order = []
        executor.schedule(30, lambda: order.append("late"))
        executor.schedule(10, lambda: order.append("early"))
        executor.run()
        assert order == ["early", "late"]

    def test_action_after_streams_end_still_fires(self):
        stream = timestamped_stream([(1, 0)])
        executor = QueryExecutor({"A": stream}, {"A": 5}, select_box())
        fired = []
        executor.schedule(1000, lambda: fired.append(True))
        executor.run()
        assert fired == [True]


class TestMigrationLifecycle:
    def test_double_migration_rejected(self):
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 200, 2)]),
            "B": timestamped_stream([(1, t) for t in range(1, 200, 2)]),
        }
        executor = QueryExecutor(streams, {"A": 50, "B": 50}, join_box())
        executor.schedule_migration(10, join_box(), GenMig())
        executor.schedule_migration(20, join_box(), GenMig())
        with pytest.raises(MigrationError):
            executor.run()

    def test_refused_migration_leaves_the_executor_as_it_was(self):
        """A strategy refusing the plan in ``begin`` is never installed:
        pushes, a second migration and ``finish`` all go on working."""
        from repro.core import ReferencePointGenMig, UnsupportedPlanError
        from repro.streams import PhysicalStream
        from scenarios import distinct_over_join_box, join_over_distinct_box

        def feed(executor, times):
            for t in times:
                executor.push("AB"[t % 2], element(1, t, t + 1))

        reference = QueryExecutor(
            {name: PhysicalStream(name=name) for name in "AB"},
            {"A": 20, "B": 20},
            distinct_over_join_box(),
        )
        expected = CollectorSink()
        reference.add_sink(expected)
        feed(reference, range(60))
        reference.finish()

        executor = QueryExecutor(
            {name: PhysicalStream(name=name) for name in "AB"},
            {"A": 20, "B": 20},
            distinct_over_join_box(),
        )
        sink = CollectorSink()
        executor.add_sink(sink)
        feed(executor, range(10))
        old_box = executor.box
        with pytest.raises(UnsupportedPlanError, match="RP001"):
            executor.start_migration(join_over_distinct_box(), ReferencePointGenMig())
        assert not executor.migration_active
        assert executor.box is old_box
        feed(executor, range(10, 20))
        executor.start_migration(join_over_distinct_box(), GenMig())
        feed(executor, range(20, 60))
        executor.finish()
        assert [r.strategy for r in executor.migration_log] == ["genmig"]
        from repro.temporal import first_divergence

        assert first_divergence(expected.elements, sink.elements) is None
        assert executor.gate.order_violations == 0

    def test_migration_completes_at_end_of_stream(self):
        """Streams ending mid-migration still drain and complete."""
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 30, 2)]),
            "B": timestamped_stream([(1, t) for t in range(1, 30, 2)]),
        }
        executor = QueryExecutor(streams, {"A": 100, "B": 100}, join_box())
        sink = CollectorSink()
        executor.add_sink(sink)
        executor.schedule_migration(25, join_box(), GenMig())
        executor.run()
        assert len(executor.migration_log) == 1

    def test_migration_report_recorded(self):
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 200, 2)]),
            "B": timestamped_stream([(1, t) for t in range(1, 200, 2)]),
        }
        _, executor = run_query(
            streams, {"A": 20, "B": 20}, join_box(),
            migrate_at=50, new_box=join_box(), strategy=GenMig(),
        )
        report = executor.migration_log[0]
        assert report.strategy == "genmig"
        assert report.t_split is not None
        assert report.duration > 0


class TestMetricsIntegration:
    def test_memory_and_output_recorded(self):
        stream = timestamped_stream([(1, t) for t in range(0, 100, 5)])
        metrics = MetricsRecorder(bucket_size=20)
        run_query({"A": stream}, {"A": 30}, select_box(), metrics=metrics)
        assert sum(metrics.output_rate()) == 20
        assert any(v > 0 for v in metrics.memory_usage()) is False  # stateless box

    def test_stateful_box_memory_visible(self):
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 100, 5)]),
            "B": timestamped_stream([(1, t) for t in range(1, 100, 5)]),
        }
        metrics = MetricsRecorder(bucket_size=20)
        run_query(streams, {"A": 30, "B": 30}, join_box(), metrics=metrics)
        assert max(metrics.memory_usage()) > 0


class TestStatisticsWiring:
    def test_join_selectivity_observed_live(self):
        """The executor wires compiled joins to the statistics catalog
        under the same key the cost model consults."""
        import random

        from repro.plans import Comparison, Field, JoinNode, PhysicalBuilder, Source

        rng = random.Random(1)
        plan = JoinNode(
            Source("A", ["x"]), Source("B", ["y"]),
            Comparison("=", Field("A.x"), Field("B.y")),
        )
        streams = {
            "A": timestamped_stream([(rng.randint(0, 9), t) for t in range(0, 400, 5)]),
            "B": timestamped_stream([(rng.randint(0, 9), t) for t in range(1, 400, 5)]),
        }
        executor = QueryExecutor(streams, {"A": 80, "B": 80},
                                 PhysicalBuilder().build(plan))
        executor.add_sink(CollectorSink())
        executor.run()
        key = "(A.x = B.y)"
        assert key in executor.statistics.selectivities
        observed = executor.statistics.selectivities[key].selectivity
        assert 0.05 < observed < 0.2  # true selectivity is 1/10

    def test_nested_loops_selectivity_observed(self):
        import random

        from repro.plans import Comparison, Field, JoinNode, PhysicalBuilder, Source

        rng = random.Random(2)
        plan = JoinNode(
            Source("A", ["x"]), Source("B", ["y"]),
            Comparison("<", Field("A.x"), Field("B.y")),
        )
        streams = {
            "A": timestamped_stream([(rng.randint(0, 9), t) for t in range(0, 300, 5)]),
            "B": timestamped_stream([(rng.randint(0, 9), t) for t in range(1, 300, 5)]),
        }
        executor = QueryExecutor(streams, {"A": 50, "B": 50},
                                 PhysicalBuilder().build(plan))
        executor.add_sink(CollectorSink())
        executor.run()
        assert "(A.x < B.y)" in executor.statistics.selectivities

    def test_migrated_box_also_wired(self):
        """After a migration, the new box's joins keep feeding statistics."""
        import random

        from repro.core import GenMig
        from repro.optimizer import join_orders
        from repro.plans import Comparison, Field, JoinNode, PhysicalBuilder, Source

        rng = random.Random(3)
        ab = Comparison("=", Field("A.x"), Field("B.y"))
        bc = Comparison("=", Field("B.y"), Field("C.z"))
        plan = JoinNode(
            JoinNode(Source("A", ["x"]), Source("B", ["y"]), ab),
            Source("C", ["z"]), bc,
        )
        streams = {
            name: timestamped_stream(
                [(rng.randint(0, 5), t) for t in range(off, 500, 5)]
            )
            for name, off in (("A", 0), ("B", 1), ("C", 2))
        }
        builder = PhysicalBuilder()
        executor = QueryExecutor(streams, {"A": 60, "B": 60, "C": 60},
                                 builder.build(plan))
        executor.add_sink(CollectorSink())
        new_plan = join_orders(plan)[3]
        executor.schedule_migration(150, builder.build(new_plan), GenMig())
        executor.run()
        assert len(executor.statistics.selectivities) >= 2


class TestIdleSourceHeartbeats:
    def test_exhausted_source_does_not_stall_output_under_round_robin(self):
        """Once a source's stream ends, downstream watermarks keep moving
        even without global heartbeats."""
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 200, 4)]),
            "B": timestamped_stream([(1, 0), (1, 4)]),  # ends early
        }
        executor = QueryExecutor(streams, {"A": 10, "B": 10}, join_box(),
                                 scheduler=RoundRobinScheduler(batch=2))
        sink = CollectorSink()
        executor.add_sink(sink)
        observed = {}
        executor.schedule(100, lambda: observed.update(n=len(sink.elements)))
        executor.run()
        # The join results involving B exist from the start; without idle
        # heartbeats they would be withheld until end-of-stream.
        assert observed["n"] > 0
