"""Failure injection and edge inputs.

Migration correctness has preconditions; these tests inject violations and
edge-case inputs to show (a) the engine degrades loudly, not silently, and
(b) the boundaries of each guarantee are where the paper says they are.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feeds import bursty_stream
from helpers import run_query
from repro.core import GenMig
from repro.core.split import Split
from repro.engine import Box, QueryExecutor
from repro.operators import DuplicateElimination, Select, equi_join
from repro.streams import CollectorSink, timestamped_stream
from repro.temporal import EPSILON, element, first_divergence, snapshot_equivalent
from scenarios import (
    distinct_over_join_box,
    join_over_distinct_box,
    two_random_streams,
)


class TestNonEquivalentMigration:
    """GenMig requires snapshot-equivalent boxes (Lemma 1's hypothesis);
    migrating to an inequivalent plan yields detectably wrong output."""

    def test_divergence_detected_when_plans_differ(self):
        streams = two_random_streams(seed=81)
        windows = {"A": 50, "B": 50}

        def filtering_box():
            select = Select(lambda p: p[0] != 0, name="drops-zeros")
            join = equi_join(0, 0)
            select.subscribe(join, 0)
            return Box(taps={"A": [(select, 0)], "B": [(join, 1)]}, root=join)

        def plain_box():
            join = equi_join(0, 0)
            return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=join)

        base, _ = run_query(streams, windows, plain_box())
        out, _ = run_query(
            streams, windows, plain_box(),
            migrate_at=120, new_box=filtering_box(), strategy=GenMig(),
        )
        divergence = first_divergence(base, out)
        assert divergence is not None
        # The damage begins only at T_split: everything before is still
        # produced by the (correct) old box.
        assert divergence > 120


class TestWrongSplitTime:
    """A T_split that does not clear the old box's instants loses or
    duplicates snapshots — the condition of Lemma 1, point 6."""

    def test_premature_t_split_loses_coverage(self):
        t_split = 30 + EPSILON  # far below start + window of live elements
        split = Split(t_split)
        old_sink, new_sink = CollectorSink(), CollectorSink()
        old_op, new_op = Select(lambda p: True), Select(lambda p: True)
        old_op.attach_sink(old_sink)
        new_op.attach_sink(new_sink)
        split.connect_old(old_op)
        split.connect_new(new_op)
        # An element entirely beyond T_split goes only to the new box; if
        # the old box already produced results for those instants (because
        # T_split was below its content), the combined output duplicates.
        original = element("a", 0, 60)
        split.process(original)
        combined = old_sink.elements + new_sink.elements
        # The split itself is loss-free...
        assert snapshot_equivalent([original], combined)
        # ...but an old box that already covered [30, 60) would now overlap
        # with the new side's part:
        stale_old_result = element("a", 20, 60)
        assert not snapshot_equivalent(
            [original], [stale_old_result] + new_sink.elements
        )


class TestEdgeInputs:
    def test_empty_streams(self):
        streams = {
            "A": timestamped_stream([]),
            "B": timestamped_stream([]),
        }
        join = equi_join(0, 0)
        box = Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=join)
        out, executor = run_query(streams, {"A": 10, "B": 10}, box)
        assert out == []

    def test_migration_with_one_silent_input(self):
        """A source that never delivers: the migration arms only at
        end-of-stream (monitoring never completes earlier) and still ends
        correctly."""
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 100, 5)]),
            "B": timestamped_stream([]),
        }
        base, _ = run_query(streams, {"A": 20, "B": 20}, distinct_over_join_box())
        out, executor = run_query(
            streams, {"A": 20, "B": 20}, distinct_over_join_box(),
            migrate_at=50, new_box=join_over_distinct_box(), strategy=GenMig(),
        )
        assert len(executor.migration_log) == 1
        assert first_divergence(base, out) is None

    def test_bursty_same_timestamp_inputs(self):
        streams = {
            "A": bursty_stream(bursts=6, burst_size=5, burst_gap=30, low=0, high=3,
                               seed=1, name="A"),
            "B": bursty_stream(bursts=6, burst_size=5, burst_gap=30, low=0, high=3,
                               seed=2, name="B"),
        }
        windows = {"A": 40, "B": 40}
        base, _ = run_query(streams, windows, distinct_over_join_box())
        out, executor = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=60, new_box=join_over_distinct_box(), strategy=GenMig(),
        )
        assert first_divergence(base, out) is None
        assert executor.gate.order_violations == 0

    def test_zero_window_query_migrates(self):
        """NOW-window queries: validity is a single instant; T_split is one
        chronon past the last monitored arrival."""
        streams = two_random_streams(seed=83)
        windows = {"A": 0, "B": 0}
        base, _ = run_query(streams, windows, distinct_over_join_box())
        out, executor = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=120, new_box=join_over_distinct_box(), strategy=GenMig(),
        )
        assert first_divergence(base, out) is None
        report = executor.migration_log[0]
        assert report.duration <= 10

    def test_migration_trigger_exactly_at_last_element(self):
        streams = {
            "A": timestamped_stream([(1, t) for t in range(0, 101, 5)]),
            "B": timestamped_stream([(1, t) for t in range(1, 101, 5)]),
        }
        windows = {"A": 30, "B": 30}
        base, _ = run_query(streams, windows, distinct_over_join_box())
        out, executor = run_query(
            streams, windows, distinct_over_join_box(),
            migrate_at=100, new_box=join_over_distinct_box(), strategy=GenMig(),
        )
        assert len(executor.migration_log) == 1
        assert first_divergence(base, out) is None


class TestGateDiagnostics:
    def test_order_violations_survive_in_pt_report(self):
        """The gate's violation counter is the visible symptom of PT's
        buffer flush; GenMig keeps it at zero on the same input."""
        from repro.core import ParallelTrack
        from scenarios import left_deep_join_box, right_deep_join_box, three_random_streams

        streams = three_random_streams(seed=85)
        windows = {"A": 60, "B": 60, "C": 60}
        _, pt_executor = run_query(
            streams, windows, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(),
            strategy=ParallelTrack(),
        )
        _, genmig_executor = run_query(
            streams, windows, left_deep_join_box(),
            migrate_at=150, new_box=right_deep_join_box(), strategy=GenMig(),
        )
        assert pt_executor.gate.order_violations > 0
        assert genmig_executor.gate.order_violations == 0


# --------------------------------------------------------------------- #
# Crash recovery and bounded-disorder ingestion
# --------------------------------------------------------------------- #


RECOVERY_WINDOW = 50
RECOVERY_JOIN_CQL = (
    f"SELECT * FROM A [RANGE {RECOVERY_WINDOW}], B [RANGE {RECOVERY_WINDOW}] "
    "WHERE A.x = B.y"
)
RECOVERY_FILTER_CQL = f"SELECT * FROM A [RANGE {RECOVERY_WINDOW}] WHERE A.x > 1"


def recovery_catalog():
    from repro import Catalog

    return Catalog({"A": ("x",), "B": ("y",)})


def recovery_service():
    from repro.service import ContinuousQueryService, ControllerPolicy

    return ContinuousQueryService(
        catalog=recovery_catalog(), policy=ControllerPolicy(period=10**9)
    )


def recovery_feed(length=240, seed=11):
    import random

    rng = random.Random(seed)
    return [
        ("A" if i % 2 == 0 else "B", element((rng.randint(0, 4),), i, i + 1))
        for i in range(length)
    ]


class TestKillAndRecover:
    """Kill the service process mid-stream; restore from its checkpoint and
    replay the durable feed tail.  The combined output must be byte-identical
    to the uninterrupted run *and* snapshot-equivalent to the relational
    oracle — recovery is invisible at every granularity we can measure."""

    def run_uninterrupted(self, cql, feed):
        service = recovery_service()
        handle = service.register("q", cql)
        for source, item in feed:
            service.hub.push(source, item)
        service.finish()
        return handle

    def crash_and_recover(self, cql, feed, crash_at, tmp_path):
        from repro.recovery import CheckpointManager, replay_tail, restore_service
        from repro.service import ControllerPolicy

        victim = recovery_service()
        victim.register("q", cql)
        for source, item in feed[:crash_at]:
            victim.hub.push(source, item)
        path = str(tmp_path / "crash.ckpt")
        CheckpointManager(victim).checkpoint(path)
        del victim  # the process dies here; only the snapshot file survives

        restored = restore_service(path, policy=ControllerPolicy(period=10**9))
        replay_tail(restored, feed)
        restored.finish()
        return restored.registry.get("q")

    def assert_recovery_invisible(self, cql, sources, tmp_path, crash_at=120):
        feed = recovery_feed()
        baseline = self.run_uninterrupted(cql, feed)
        recovered = self.crash_and_recover(cql, feed, crash_at, tmp_path)

        # Byte-identical, not merely equivalent: same elements, same
        # intervals, same order, same metrics epochs.
        assert recovered.results == baseline.results
        assert recovered.metrics.epoch_state() == baseline.metrics.epoch_state()

        # And independently correct against the snapshot oracle.
        from helpers import windowed
        from repro.analysis.oracle import RelationalOracle

        streams = {name: [] for name in sources}
        for source, item in feed:
            if source in streams:
                streams[source].append(item)
        reference = RelationalOracle(
            {
                name: windowed(elements, RECOVERY_WINDOW)
                for name, elements in streams.items()
            }
        )
        instants = list(range(0, len(feed) + 2 * RECOVERY_WINDOW, 7))
        assert (
            reference.check(recovered.query.plan, recovered.results, instants)
            is None
        )

    def test_join_bearing_columnar_plan(self, tmp_path):
        self.assert_recovery_invisible(
            RECOVERY_JOIN_CQL, ("A", "B"), tmp_path
        )

    def test_elementwise_plan(self, tmp_path):
        self.assert_recovery_invisible(RECOVERY_FILTER_CQL, ("A",), tmp_path)

    def test_recover_from_earliest_and_latest_cut(self, tmp_path):
        """The cut position is immaterial: first element or last."""
        feed = recovery_feed()
        baseline = self.run_uninterrupted(RECOVERY_JOIN_CQL, feed)
        for crash_at in (1, len(feed) - 1):
            recovered = self.crash_and_recover(
                RECOVERY_JOIN_CQL, feed, crash_at, tmp_path
            )
            assert recovered.results == baseline.results


class TestShuffledArrival:
    """Bounded-disorder admission: a feed shuffled within the slack is
    indistinguishable from the ordered feed, and an over-slack straggler is
    rejected with a typed error instead of corrupting downstream state."""

    SLACK = 16

    def ordered_run(self, feed):
        service = recovery_service()
        handle = service.register("q", RECOVERY_JOIN_CQL)
        for source, item in feed:
            service.hub.push(source, item)
        service.finish()
        return handle

    def buffered_run(self, arrivals):
        from repro.recovery import DisorderBuffer

        service = recovery_service()
        handle = service.register("q", RECOVERY_JOIN_CQL)
        buffer = DisorderBuffer(service.hub, slack=self.SLACK)
        for source, item in arrivals:
            buffer.push(source, item)
        buffer.flush()
        service.finish()
        return handle, buffer

    @settings(max_examples=15, deadline=None)
    @given(jitter_seed=st.integers(min_value=0, max_value=10**9))
    def test_within_slack_disorder_is_transparent(self, jitter_seed):
        import random

        feed = recovery_feed(length=120)
        rng = random.Random(jitter_seed)
        # Jitter-sort keeps every displacement below the slack: an element
        # at s only trails arrivals whose start is below s + SLACK.
        arrivals = sorted(
            feed, key=lambda pair: pair[1].start + rng.randrange(self.SLACK)
        )

        baseline = self.ordered_run(feed)
        recovered, buffer = self.buffered_run(arrivals)

        if arrivals != feed:
            assert buffer.reordered > 0
        assert recovered.results == baseline.results
        assert recovered.metrics.epoch_state() == baseline.metrics.epoch_state()

    def test_over_slack_straggler_rejected(self):
        from repro.recovery import DisorderBuffer, DisorderError

        service = recovery_service()
        service.register("q", RECOVERY_JOIN_CQL)
        buffer = DisorderBuffer(service.hub, slack=self.SLACK)
        buffer.publish("A", (1,), 100)
        with pytest.raises(DisorderError):
            buffer.publish("B", (1,), 100 - self.SLACK - 1)

    def test_rejection_leaves_admitted_prefix_consistent(self):
        """After a DisorderError the buffer is still usable: everything
        admitted so far drains cleanly and in order."""
        from repro.recovery import DisorderBuffer, DisorderError

        service = recovery_service()
        handle = service.register("q", RECOVERY_FILTER_CQL)
        buffer = DisorderBuffer(service.hub, slack=4)
        for t in (10, 12, 11, 15):
            buffer.publish("A", (t % 5,), t)
        with pytest.raises(DisorderError):
            buffer.publish("A", (0,), 3)
        buffer.flush()
        service.finish()
        starts = [item.start for item in handle.results]
        assert starts == sorted(starts)
