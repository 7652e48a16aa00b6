"""Tests for fluid (per-key-range) migration."""

import itertools

import pytest

from helpers import run_query
from repro.analysis.sanitizer import sanitized
from repro.core import (
    FluidMigration,
    FrontierRouter,
    GenMig,
    UnsoundPreferenceError,
    UnsupportedPlanError,
    select_strategy,
)
from repro.core.fluid import range_of
from repro.operators import CostMeter, NestedLoopsJoin
from repro.engine import (
    Box,
    GlobalOrderScheduler,
    MigrationError,
    QueryExecutor,
    RoundRobinScheduler,
)
from repro.streams import CollectorSink, PhysicalStream, timestamped_stream
from repro.temporal import element, first_divergence
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


def nested_loops_box() -> Box:
    j1 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="AB")
    j2 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="ABC")
    j1.subscribe(j2, 0)
    return Box(taps={"A": [(j1, 0)], "B": [(j1, 1)], "C": [(j2, 1)]}, root=j2)


def right_deep_nested_loops_box() -> Box:
    j1 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="BC")
    j2 = NestedLoopsJoin(lambda l, r: l[0] == r[0], name="ABC")
    j1.subscribe(j2, 1)
    return Box(taps={"A": [(j2, 0)], "B": [(j1, 0)], "C": [(j1, 1)]}, root=j2)


class TestValidation:
    def test_rejects_ranges_below_one(self):
        with pytest.raises(ValueError):
            FluidMigration(ranges=0)

    def test_rejects_unkeyed_joins(self):
        """Nested-loops joins keep state no key range can drain (FLM001
        at runtime) — at more than one range."""
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


class TestWholeStateHandover:
    """Fluid at one range is the Moving States baseline: the new plan's
    state is computed from the old plan's in one flip at the start."""

    def test_correct_for_join_reordering(self):
        """Nested-loops joins qualify: one range splits no key domain."""
        streams = three_random_streams()
        base, _ = run_query(streams, W3, nested_loops_box())
        out, executor = run_query(
            streams, W3, nested_loops_box(),
            migrate_at=150, new_box=right_deep_nested_loops_box(),
            strategy=FluidMigration(ranges=1),
        )
        assert first_divergence(base, out) is None
        assert executor.gate.order_violations == 0

    def test_reverse_direction(self):
        streams = three_random_streams(seed=8)
        base, _ = run_query(streams, W3, right_deep_join_box())
        out, _ = run_query(
            streams, W3, right_deep_join_box(),
            migrate_at=150, new_box=left_deep_join_box(),
            strategy=FluidMigration(ranges=1),
        )
        assert first_divergence(base, out) is None

    def test_flips_at_start_and_completes_one_horizon_later(self):
        """The whole state moves at arm; the old box stays attached until
        every input passes the Lemma 1 horizon, delivering what it staged."""
        streams = three_random_streams()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=FluidMigration(ranges=1),
        )
        report = executor.migration_log[0]
        assert [(index, at) for index, at, _ in report.extra["range_log"]] == [
            (0, str(report.started_at))
        ]
        assert report.duration >= W3["A"]

    def test_seeding_work_accounted(self):
        """The handover pays a burst of state recomputation — the cost
        GenMig avoids."""
        streams = three_random_streams()
        meter = CostMeter()
        _, executor = run_query(
            streams, W3, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=FluidMigration(ranges=1), meter=meter,
        )
        report = executor.migration_log[0]
        assert report.extra["seeded"] > 0
        assert meter.by_category.get("fluid-seed", 0) > 0

    def test_new_box_state_populated_at_switch(self):
        new_box = right_deep_join_box()
        snapshot_size = {}
        executor = QueryExecutor(three_random_streams(), W3, left_deep_join_box())
        executor.add_sink(CollectorSink())
        executor.schedule_migration(150, new_box, FluidMigration(ranges=1))
        executor.schedule(152, lambda: snapshot_size.update(n=new_box.state_value_count()))
        executor.run()
        assert snapshot_size["n"] > 0

    def test_refuses_distinct_plans(self):
        with pytest.raises(UnsupportedPlanError, match="FLM005"):
            run_query(
                two_random_streams(), {"A": 50, "B": 50}, distinct_over_join_box(),
                migrate_at=100, new_box=join_over_distinct_box(),
                strategy=FluidMigration(ranges=1),
            )

    def test_refuses_non_join_entry_points(self):
        with pytest.raises(UnsupportedPlanError, match="FLM006"):
            run_query(
                two_random_streams(), {"A": 50, "B": 50}, difference_box(),
                migrate_at=100, new_box=difference_filtered_box(100),
                strategy=FluidMigration(ranges=1),
            )


def online_executor(box, **kwargs):
    """An executor fed by ``push`` without global heartbeats, so that one
    watermark step can cover several distinct result starts."""
    executor = QueryExecutor(
        {name: PhysicalStream(name=name) for name in "ABC"},
        {"A": 12, "B": 12, "C": 12},
        box,
        global_heartbeats=False,
        **kwargs,
    )
    sink = CollectorSink()
    executor.add_sink(sink)
    return executor, sink


class TestDeliveryOrder:
    """Both roots reach the gate through one order-restoring merge."""

    @pytest.mark.parametrize("ranges", [1, 2, 8])
    def test_two_starts_in_one_watermark_step_stay_ordered(self, ranges):
        """``A@0, B@1, B@2, C@0 | migrate | C@0``: at end of stream the
        old root owes results starting at 1 and 2 and so does the new
        root; delivered root by root that is ``[1, 2, 1, 2]``."""
        executor, sink = online_executor(left_deep_join_box())
        executor.push("A", element(0, 0, 1))
        executor.push("B", element(0, 1, 2))
        executor.push("B", element(0, 2, 3))
        executor.push("C", element(0, 0, 1))
        executor.start_migration(right_deep_join_box(), FluidMigration(ranges=ranges))
        executor.push("C", element(0, 0, 1))
        executor.finish()
        starts = [e.start for e in sink.elements]
        assert starts == sorted(starts) == [1, 1, 2, 2]
        assert executor.gate.order_violations == 0

    def test_what_the_merge_holds_counts_as_migration_state(self):
        """Fig. 5's metric covers the merge; the incremental count agrees
        with the recount (SAN007 checks the merge's advance)."""
        executor, _ = online_executor(left_deep_join_box())
        for name in "ABC":
            executor.push(name, element(0, 0, 1))
        strategy = FluidMigration(ranges=1)
        executor.start_migration(right_deep_join_box(), strategy)
        assert strategy.phase == "parallel"
        before = strategy.state_value_count()
        with sanitized():
            # The old root runs ahead of the new one: its result must wait.
            strategy.merge.process(element((7, 7, 7), 5, 9), 0)
            assert strategy.state_value_count() == before + 3
            assert strategy.merge.state_value_count_slow() == 3
        assert strategy.phase_state() != FluidMigration(ranges=1).phase_state()


class TestRunAheadInput:
    """A range must not flip while a lagging input can still join state
    the old box has purged on the other inputs' run-ahead watermarks."""

    @staticmethod
    def stream(name, rows):
        return timestamped_stream(rows, name=name)

    @pytest.mark.parametrize(
        "scheduler,batch_size,ranges,migrate_at",
        itertools.product(
            ("global", "round-robin-2", "round-robin-4"), (1, 2, 8), (1, 2, 8), (6, 14)
        ),
    )
    def test_exhausted_input_loses_no_results(
        self, scheduler, batch_size, ranges, migrate_at
    ):
        """``A@0 | B@1, 3, …, 13, 14 | C@0 ×7``: the exhausted A is promised
        the clock while C lags, so the old ``A⋈B`` purges ``a [0,13)``
        before C catches up — and seeding the new right-deep box, where
        ``a`` meets C directly, needs it.  Flipping on schedule lost
        results whether the purge fell inside the parallel phase
        (migrated at 6: 36 of 42 under ``round-robin-2`` with two ranges)
        or before arming (at 14: 24 of 42 under ``round-robin-4`` with one
        range); the flip has to wait for C."""
        rows = {
            "A": [(0, 0)],
            "B": [(0, t) for t in (1, 3, 5, 7, 9, 11, 13, 14)],
            "C": [(0, 0)] * 7,
        }
        schedulers = {
            "global": GlobalOrderScheduler,
            "round-robin-2": lambda: RoundRobinScheduler(batch=2),
            "round-robin-4": lambda: RoundRobinScheduler(batch=4),
        }

        def run(strategy):
            streams = {name: self.stream(name, rows[name]) for name in rows}
            executor = QueryExecutor(
                streams, {"A": 12, "B": 12, "C": 12}, left_deep_join_box(),
                scheduler=schedulers[scheduler](), batch_size=batch_size,
            )
            sink = CollectorSink()
            executor.add_sink(sink)
            if strategy is not None:
                executor.schedule_migration(migrate_at, right_deep_join_box(), strategy)
            executor.run()
            return sink.elements, executor

        base, _ = run(None)
        out, executor = run(FluidMigration(ranges=ranges))
        assert len(base) == 42
        assert len(executor.migration_log) == 1
        assert sorted((e.payload, e.start, e.end) for e in out) == sorted(
            (e.payload, e.start, e.end) for e in base
        )
        assert executor.gate.order_violations == 0


class TestRangeOf:
    def test_pinned_assignments(self):
        """The ``fluid-joins`` preset relies on these two values to put its
        keys in both ranges of ``FluidMigration(ranges=2)``."""
        assert range_of("a", 2) == 0
        assert range_of("b", 2) == 1

    def test_spreads_a_small_key_domain(self):
        assert len({range_of((k,), 4) for k in range(5)}) > 1


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


class TestStatelessOperatorsBetweenJoins:
    """Verdict and runtime agree on what fluid can replay and seed through."""

    @staticmethod
    def chained_box(deep_side: str):
        """A ``PhysicalBuilder``-built 3-way keyed join with a plain
        select → project chain between the joins."""
        from repro.plans import (
            Comparison, Field, JoinNode, Literal, ProjectNode, SelectNode, Source,
        )
        from repro.plans.physical import PhysicalBuilder

        a, b, c = Source("A", ["k"]), Source("B", ["k"]), Source("C", ["k"])

        def filtered(plan, column):
            once = SelectNode(plan, Comparison("<", Field(column), Literal(7)))
            return ProjectNode(once, [(Field(name), name) for name in once.schema])

        if deep_side == "left":
            inner = JoinNode(a, b, Comparison("=", Field("A.k"), Field("B.k")))
            plan = JoinNode(
                filtered(inner, "A.k"), c, Comparison("=", Field("A.k"), Field("C.k"))
            )
        else:
            inner = JoinNode(b, c, Comparison("=", Field("B.k"), Field("C.k")))
            plan = JoinNode(
                a, filtered(inner, "B.k"), Comparison("=", Field("A.k"), Field("B.k"))
            )
        return PhysicalBuilder().build(plan)

    def test_plain_chain_is_selected_and_migrates(self):
        from repro.operators import Project, Select

        old_box, new_box = self.chained_box("left"), self.chained_box("right")
        assert {Select, Project} <= {type(op) for op in old_box.operators}
        strategy = select_strategy(old_box, new_box, prefer="fluid")
        assert isinstance(strategy, FluidMigration)
        assert not strategy.selection_verdict.strategies["fluid"].diagnostics

        streams = three_random_streams()
        base, _ = run_query(streams, W3, self.chained_box("left"))
        out, executor = run_query(
            streams, W3, old_box, migrate_at=150, new_box=new_box, strategy=strategy,
        )
        assert base, "the plan must produce results"
        assert sorted((e.payload, e.start, e.end) for e in out) == sorted(
            (e.payload, e.start, e.end) for e in base
        )
        assert executor.gate.order_violations == 0
        assert executor.migration_log[0].strategy == "fluid"

    def test_stateless_operator_without_evaluate_hook_is_flm004(self):
        """A mid-tree stateless operator fluid cannot evaluate is refused
        by the verifier and by ``begin`` alike — and ``prefer='fluid'``
        is refused with the verifier's code, before anything runs."""
        from repro.operators import StatelessOperator, equi_join

        class Relay(StatelessOperator):
            def _on_element(self, element, port):
                self._stage(element)

        def relayed_box(deep_port):
            first, second = ("AB", "C") if deep_port == 0 else ("BC", "A")
            j1, j2 = equi_join(0, 0, name=first), equi_join(0, 0, name="ABC")
            relay = Relay(name="relay")
            j1.subscribe(relay, 0)
            relay.subscribe(j2, deep_port)
            taps = {first[0]: [(j1, 0)], first[1]: [(j1, 1)], second: [(j2, 1 - deep_port)]}
            return Box(taps=taps, root=j2)

        with pytest.raises(UnsoundPreferenceError) as refusal:
            select_strategy(relayed_box(0), relayed_box(1), prefer="fluid")
        assert refusal.value.codes == ("FLM004",)
        with pytest.raises(UnsupportedPlanError, match="FLM004"):
            run_query(
                three_random_streams(), W3, relayed_box(0),
                migrate_at=150, new_box=relayed_box(1), strategy=FluidMigration(),
            )


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

    def test_unsafe_preference_is_a_typed_refusal(self):
        """FLM001 on nested-loops joins: prefer='fluid' raises the
        verifier's codes instead of quietly picking another strategy."""
        with pytest.raises(UnsoundPreferenceError, match="FLM001") as refusal:
            select_strategy(nested_loops_box(), nested_loops_box(), prefer="fluid")
        assert isinstance(refusal.value, MigrationError)
        assert refusal.value.prefer == "fluid"
        assert "FLM001" in refusal.value.codes
        assert not refusal.value.verdict.strategies["fluid"].safe
