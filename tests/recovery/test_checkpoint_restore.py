"""Checkpoint → crash → restore → replay reproduces the uninterrupted run.

The driving claim: at a consistent cut, drained operator state plus hub
offsets determine the service's entire observable future.  Every test
compares a restored-and-replayed service against an uninterrupted twin,
down to results, metrics epochs and event-log bookkeeping.
"""

import pytest

from repro import Catalog
from repro.core import GenMig
from repro.recovery import (
    CheckpointManager,
    RecoveryError,
    read_snapshot,
    replay_tail,
    restore_service,
)
from repro.recovery.checkpoint import paused_names, validate_snapshot
from repro.service import ContinuousQueryService
from repro.service.controller import ControllerPolicy
from repro.service.registry import PAUSED
from repro.temporal import element

JOIN_CQL = (
    "SELECT * FROM bids [RANGE 50], asks [RANGE 50] "
    "WHERE bids.item = asks.item"
)
SELECT_CQL = "SELECT * FROM bids [RANGE 50] WHERE bids.price > 20"
DISTINCT_CQL = "SELECT DISTINCT bids.item FROM bids [RANGE 50]"


def catalog():
    return Catalog({"bids": ("item", "price"), "asks": ("item", "price")})


def quiet_policy():
    # A controller period beyond the feed keeps re-optimization out of the
    # picture; migration interplay is the integration suite's business.
    return ControllerPolicy(period=10**9)


def make_service(*queries):
    service = ContinuousQueryService(catalog=catalog(), policy=quiet_policy())
    for name, cql in queries:
        service.register(name, cql)
    return service


def make_feed(length=200):
    return [
        (
            "bids" if i % 2 == 0 else "asks",
            element((i % 7, (i * 2654435761) % 100), i, i + 1),
        )
        for i in range(length)
    ]


def run_to_end(service, feed, start=0):
    for source, item in feed[start:]:
        service.hub.push(source, item)
    service.finish()
    return service


def snapshot_of(service, feed, cut, tmp_path):
    """Feed ``cut`` elements, checkpoint, and pretend the process dies."""
    for source, item in feed[:cut]:
        service.hub.push(source, item)
    path = str(tmp_path / "service.ckpt")
    size = CheckpointManager(service).checkpoint(path)
    assert size > 0
    return path


def assert_same_observable_state(restored, baseline, names):
    for name in names:
        left, right = restored.registry.get(name), baseline.registry.get(name)
        assert left.results == right.results
        assert left.metrics.epoch_state() == right.metrics.epoch_state()
        assert left.state == right.state


class TestKillAndRecover:
    @pytest.mark.parametrize("cut", [1, 100, 199])
    def test_join_query_byte_identical(self, cut, tmp_path):
        feed = make_feed()
        baseline = run_to_end(make_service(("q", JOIN_CQL)), feed)
        path = snapshot_of(make_service(("q", JOIN_CQL)), feed, cut, tmp_path)

        restored = restore_service(path, policy=quiet_policy())
        replayed = replay_tail(restored, feed)
        assert replayed == len(feed) - cut
        restored.finish()
        assert_same_observable_state(restored, baseline, ["q"])

    def test_elementwise_query_byte_identical(self, tmp_path):
        feed = make_feed()
        baseline = run_to_end(make_service(("q", SELECT_CQL)), feed)
        path = snapshot_of(make_service(("q", SELECT_CQL)), feed, 77, tmp_path)

        restored = restore_service(path, policy=quiet_policy())
        replay_tail(restored, feed)
        restored.finish()
        assert_same_observable_state(restored, baseline, ["q"])

    def test_multiple_queries_recover_together(self, tmp_path):
        feed = make_feed()
        queries = [("join", JOIN_CQL), ("sel", SELECT_CQL), ("dist", DISTINCT_CQL)]
        baseline = run_to_end(make_service(*queries), feed)
        path = snapshot_of(make_service(*queries), feed, 120, tmp_path)

        restored = restore_service(path, policy=quiet_policy())
        replay_tail(restored, feed)
        restored.finish()
        assert_same_observable_state(restored, baseline, [n for n, _ in queries])

    def test_paused_query_stays_paused(self, tmp_path):
        feed = make_feed()
        baseline = make_service(("q", JOIN_CQL), ("idle", SELECT_CQL))
        baseline.pause("idle")
        run_to_end(baseline, feed)

        victim = make_service(("q", JOIN_CQL), ("idle", SELECT_CQL))
        victim.pause("idle")
        path = snapshot_of(victim, feed, 100, tmp_path)
        assert paused_names(read_snapshot(path)) == ["idle"]

        restored = restore_service(path, policy=quiet_policy())
        assert restored.registry.get("idle").state == PAUSED
        replay_tail(restored, feed)
        restored.finish()
        assert_same_observable_state(restored, baseline, ["q", "idle"])

    def test_checkpoint_then_continue_without_crash(self, tmp_path):
        """Capturing is read-only: the checkpointed service itself keeps
        running and still matches an uncheckpointed twin."""
        feed = make_feed()
        baseline = run_to_end(make_service(("q", JOIN_CQL)), feed)
        survivor = make_service(("q", JOIN_CQL))
        snapshot_of(survivor, feed, 100, tmp_path)
        run_to_end(survivor, feed, start=100)
        assert_same_observable_state(survivor, baseline, ["q"])

    def test_hub_position_restored(self, tmp_path):
        feed = make_feed()
        victim = make_service(("q", JOIN_CQL))
        path = snapshot_of(victim, feed, 100, tmp_path)
        restored = restore_service(path, policy=quiet_policy())
        assert restored.hub.clock == victim.hub.clock
        assert restored.hub.published == victim.hub.published
        assert restored.hub.offsets == victim.hub.offsets


def migrate_until_complete(service, feed, trigger=60):
    """Feed up to ``trigger``, migrate "q" by GenMig + Coalesce onto a
    rebuilt copy of its plan, and feed on until the migration completes;
    returns the number of elements fed, the first consistent cut after it.
    """
    handle = service.registry.get("q")
    for source, item in feed[:trigger]:
        service.hub.push(source, item)
    new_box = service.registry.builder.build(handle.plan, label="rebuilt")
    handle.executor.start_migration(new_box, GenMig())
    cut = trigger
    while handle.executor.migration_active:
        source, item = feed[cut]
        service.hub.push(source, item)
        cut += 1
    return cut


def split_time_stamps(value):
    """Every half-chronon float anywhere in a decoded checkpoint payload."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [stamp for item in value for stamp in split_time_stamps(item)]
    return []


class TestCheckpointAfterMigration:
    def test_genmig_coalesce_state_restores_byte_identical(self, tmp_path):
        """Right after a GenMig + Coalesce migration completes, state holds
        elements stamped at the half-chronon ``T_split``: they survive
        the checkpoint as floats and the restored service delivers what
        the uninterrupted one does."""
        feed = make_feed()
        baseline = make_service(("q", JOIN_CQL))
        cut = migrate_until_complete(baseline, feed)
        run_to_end(baseline, feed, start=cut)

        victim = make_service(("q", JOIN_CQL))
        assert migrate_until_complete(victim, feed) == cut < len(feed)
        path = str(tmp_path / "service.ckpt")
        CheckpointManager(victim).checkpoint(path)
        (report,) = victim.registry.get("q").migrations
        assert report.strategy == "genmig" and report.t_split % 1 == 0.5
        assert report.t_split in split_time_stamps(read_snapshot(path))

        restored = restore_service(path, policy=quiet_policy())
        assert replay_tail(restored, feed) == len(feed) - cut
        restored.finish()
        assert_same_observable_state(restored, baseline, ["q"])


class TestConsistentCutGuards:
    def test_cannot_checkpoint_finished_service(self):
        service = run_to_end(make_service(("q", SELECT_CQL)), make_feed(20))
        with pytest.raises(RecoveryError, match="finished"):
            CheckpointManager(service).capture()

    def test_cannot_checkpoint_with_pending_actions(self):
        service = make_service(("q", SELECT_CQL))
        for source, item in make_feed(20):
            service.hub.push(source, item)
        executor = service.registry.get("q").executor
        executor.schedule(executor.clock + 1000, lambda: None)
        with pytest.raises(RecoveryError, match="scheduled"):
            CheckpointManager(service).capture()

    def test_cannot_checkpoint_mid_migration(self):
        service = make_service(("q", SELECT_CQL))
        for source, item in make_feed(20):
            service.hub.push(source, item)
        executor = service.registry.get("q").executor
        executor.strategy = object()  # a migration that never finishes
        with pytest.raises(RecoveryError, match="migration"):
            CheckpointManager(service).capture()
        executor.strategy = None


class TestRestoreGuards:
    def test_rejects_non_checkpoint_payload(self):
        with pytest.raises(RecoveryError, match="not a service checkpoint"):
            restore_service({"format": "something-else"})

    def test_rejects_future_version(self, tmp_path):
        payload = CheckpointManager(make_service(("q", SELECT_CQL))).capture()
        payload["version"] = 99
        with pytest.raises(RecoveryError, match="version"):
            validate_snapshot(payload)

    def test_rejects_version_1_checkpoint_of_the_fusing_build(self):
        """A checkpoint written before fusion was retired (``builder.fuse``,
        ``FusedStateless`` operator records) is refused by version, with
        the typed error, before any plan is rebuilt and compared."""
        payload = CheckpointManager(make_service(("q", SELECT_CQL))).capture()
        assert "fuse" not in payload["builder"]
        payload["version"] = 1
        payload["builder"]["fuse"] = True
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 1"):
            restore_service(payload, policy=quiet_policy())

    def test_rejects_version_2_checkpoint_of_the_columnar_switch(self):
        """A checkpoint whose ``builder`` section still carries the retired
        ``columnar`` switch is refused by version, with the typed error,
        instead of failing in the ``PhysicalBuilder`` constructor."""
        payload = CheckpointManager(make_service(("q", JOIN_CQL))).capture()
        assert payload["version"] == 6
        assert "columnar" not in payload["builder"]
        payload["version"] = 2
        payload["builder"]["columnar"] = True
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 2"):
            validate_snapshot(payload)
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 2"):
            restore_service(payload, policy=quiet_policy())

    def test_rejects_version_3_checkpoint_of_fraction_split_times(self):
        """Version 3 stamped post-migration state with ``Fraction`` split
        times, which this build's time domain refuses; the version check
        says so before any element is rebuilt."""
        payload = CheckpointManager(make_service(("q", JOIN_CQL))).capture()
        payload["version"] = 3
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 3"):
            validate_snapshot(payload)
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 3"):
            restore_service(payload, policy=quiet_policy())

    def test_rejects_version_4_checkpoint_of_difference_extras(self):
        """Version 4 operator records carried ``extras`` (the difference
        payload order) and drained difference state in first-touch order;
        this build neither writes nor reads them, and says so by version."""
        payload = CheckpointManager(make_service(("q", JOIN_CQL))).capture()
        payload["version"] = 4
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 4"):
            validate_snapshot(payload)
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 4"):
            restore_service(payload, policy=quiet_policy())

    def test_rejects_version_5_checkpoint(self, monkeypatch):
        """Version 5 query records carried a ``shards`` count, and a query
        could hold a ``sharded`` executor state; this build writes neither
        and refuses the payload by version before it registers a query."""
        payload = CheckpointManager(make_service(("q", JOIN_CQL))).capture()
        assert "shards" not in payload["queries"][0]
        payload["version"] = 5
        payload["queries"][0]["shards"] = 2
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 5"):
            validate_snapshot(payload)
        registered = []
        monkeypatch.setattr(
            ContinuousQueryService,
            "register",
            lambda self, *args, **kwargs: registered.append(args),
        )
        with pytest.raises(RecoveryError, match="unsupported checkpoint version 5"):
            restore_service(payload, policy=quiet_policy())
        assert registered == []

    def test_plan_signature_mismatch_detected(self, tmp_path):
        feed = make_feed()
        path = snapshot_of(make_service(("q", JOIN_CQL)), feed, 50, tmp_path)
        payload = read_snapshot(path)
        payload["queries"][0]["plan_signature"] = "Join(elsewhere)"
        with pytest.raises(RecoveryError, match="after a migration"):
            restore_service(payload, policy=quiet_policy())

    def test_query_object_needs_replacement(self, tmp_path):
        feed = make_feed()
        service = make_service(("anchor", SELECT_CQL))
        # Register a second query from a Query *object*: no CQL text to
        # recompile from, so restore must be handed the object again.
        query_object = service.registry.get("anchor").query
        service.register("opaque", query_object)
        path = snapshot_of(service, feed, 50, tmp_path)

        with pytest.raises(RecoveryError, match="restore_service"):
            restore_service(path, policy=quiet_policy())

        baseline = make_service(("anchor", SELECT_CQL))
        baseline.register("opaque", baseline.registry.get("anchor").query)
        run_to_end(baseline, feed)
        restored = restore_service(
            path, queries={"opaque": query_object}, policy=quiet_policy()
        )
        replay_tail(restored, feed)
        restored.finish()
        assert_same_observable_state(restored, baseline, ["anchor", "opaque"])

    def test_rewind_refuses_live_hub(self):
        service = make_service(("q", SELECT_CQL))
        service.publish("bids", (1, 30), 0)
        with pytest.raises(RecoveryError, match="fresh hub"):
            service.hub.rewind(10, 5, {"bids": 5})

    def test_restore_refuses_reused_executor(self, tmp_path):
        feed = make_feed()
        path = snapshot_of(make_service(("q", JOIN_CQL)), feed, 50, tmp_path)
        restored = restore_service(path, policy=quiet_policy())
        state = read_snapshot(path)["queries"][0]["executor"]
        from repro.recovery.restore import _unpack_executor_state

        with pytest.raises(RecoveryError, match="fresh executor"):
            restored.registry.get("q").executor.restore_checkpoint(
                _unpack_executor_state(state)
            )


class TestReplayGuards:
    def test_replay_detects_feed_mismatch(self, tmp_path):
        feed = make_feed()
        path = snapshot_of(make_service(("q", JOIN_CQL)), feed, 100, tmp_path)
        restored = restore_service(path, policy=quiet_policy())
        # A "log" whose skipped prefix contains elements the checkpoint
        # could never have consumed (they lie beyond its clock).
        wrong_feed = [
            (source, element(item.payload, item.start + 10**6, item.end + 10**6))
            for source, item in feed
        ]
        with pytest.raises(RecoveryError, match="inconsistent offsets"):
            replay_tail(restored, wrong_feed)

    def test_replay_detects_out_of_order_tail(self, tmp_path):
        feed = make_feed()
        path = snapshot_of(make_service(("q", JOIN_CQL)), feed, 100, tmp_path)
        restored = restore_service(path, policy=quiet_policy())
        stale = [("bids", element((0, 0), 3, 4))]
        with pytest.raises(RecoveryError, match="behind the restored hub clock"):
            replay_tail(restored, stale, offsets={})

    def test_replay_returns_zero_when_nothing_remains(self, tmp_path):
        feed = make_feed(60)
        path = snapshot_of(make_service(("q", SELECT_CQL)), feed, 60, tmp_path)
        restored = restore_service(path, policy=quiet_policy())
        assert replay_tail(restored, feed) == 0
