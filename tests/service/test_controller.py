"""The autonomic controller: drift detection, guarded migration, audit log.

The centrepiece is the end-to-end service scenario the paper's
introduction describes: several continuous queries share one physical
stream feed, the stream rates drift mid-run, and — with no manual
``start_migration`` call anywhere — the controller detects
the stale plan, migrates exactly the affected query, and records the whole
decision history per query.  Output correctness is checked against the
snapshot-by-snapshot relational reference of ``tests/helpers.py``.
"""

import json
import random

import pytest

from helpers import windowed
from repro.analysis.oracle import RelationalOracle
from repro.core import GenMig
from repro.cql import Catalog
from repro.service import ContinuousQueryService, ControllerPolicy
from repro.service import events as ev
from repro.temporal import element

WINDOW = 40
END = 4200


def catalog():
    return Catalog({"A": ("x",), "B": ("y",), "C": ("z",)})


JOIN_CQL = (
    f"SELECT * FROM A [RANGE {WINDOW}], B [RANGE {WINDOW}], C [RANGE {WINDOW}] "
    "WHERE A.x = B.y AND B.y = C.z"
)
FILTER_CQL = f"SELECT * FROM A [RANGE {WINDOW}] WHERE A.x > 1"


def drifting_feed(seed=5):
    """(source, payload, t) triples whose rates flip at t=1200.

    Phase 1: A and B trickle (every 50 chronons), C is fast (every 6) —
    the left-deep (A⋈B)⋈C plan is the right choice.  Phase 2: A and B
    flood (every 3), C goes quiet (every 150) — now joining C first wins.
    """
    rng = random.Random(seed)
    feed = []
    for t in range(0, 1200):
        if t % 50 == 0:
            feed.append(("A", (rng.randint(0, 3),), t))
        if t % 50 == 1:
            feed.append(("B", (rng.randint(0, 3),), t))
        if t % 6 == 2:
            feed.append(("C", (rng.randint(0, 3),), t))
    for t in range(1200, END):
        if t % 3 == 0:
            feed.append(("A", (rng.randint(0, 3),), t))
        if t % 3 == 1:
            feed.append(("B", (rng.randint(0, 3),), t))
        if t % 150 == 2:
            feed.append(("C", (rng.randint(0, 3),), t))
    feed.sort(key=lambda item: item[2])
    return feed


def raw_streams(feed):
    streams = {"A": [], "B": [], "C": []}
    for source, payload, t in feed:
        streams[source].append(element(payload, t, t + 1))
    return streams


def assert_no_overlap(kinds):
    """No second 'migrated' before the previous one 'completed'."""
    in_flight = False
    for kind in kinds:
        if kind == ev.MIGRATED:
            assert not in_flight, "two overlapping migrations recorded"
            in_flight = True
        elif kind == ev.COMPLETED:
            in_flight = False
    assert not in_flight, "a migration never completed"


def drift_policy(strategy):
    """A policy that migrates ``join3`` once on the drifting feed."""
    return ControllerPolicy(
        period=300,
        warmup_observations=25,
        cooldown=1500,
        improvement_threshold=0.85,
        migration_cost_per_value=0.01,
        savings_horizon=500.0,
        strategy=strategy,
    )


@pytest.mark.parametrize(
    "strategy_policy, expected_strategy",
    [("coalesce", "genmig"), ("auto", "genmig-rp")],
)
def test_autonomous_drift_migration_end_to_end(strategy_policy, expected_strategy):
    service = ContinuousQueryService(catalog=catalog(), policy=drift_policy(strategy_policy))
    joined = service.register("join3", JOIN_CQL)
    filtered = service.register("filt", FILTER_CQL)

    feed = drifting_feed()
    for source, payload, t in feed:
        service.publish(source, payload, t)
    service.finish()

    # Exactly the stale query migrated, autonomously, exactly once.
    assert len(joined.migrations) == 1
    assert joined.migrations[0].strategy == expected_strategy
    assert filtered.migrations == []
    assert joined.plan.signature() != joined.query.plan.signature()
    assert filtered.plan.signature() == filtered.query.plan.signature()

    # The audit log holds the full decision history: cold-start skips,
    # keeps under the initial (healthy) statistics, the migration, its
    # completion, and cooldown skips afterwards — with no overlap.
    kinds = joined.events.kinds()
    for required in (
        ev.CONSIDERED,
        ev.SKIPPED_COLD,
        ev.KEPT,
        ev.MIGRATED,
        ev.COMPLETED,
        ev.SKIPPED_COOLDOWN,
    ):
        assert required in kinds, f"missing {required!r} in {kinds}"
    assert kinds.index(ev.MIGRATED) < kinds.index(ev.COMPLETED)
    assert kinds.count(ev.MIGRATED) == 1
    assert_no_overlap(kinds)
    # The cold skips precede the migration: no decision on cold statistics.
    assert kinds.index(ev.SKIPPED_COLD) < kinds.index(ev.MIGRATED)

    migrated = joined.events.of_kind(ev.MIGRATED)[0]
    assert migrated["strategy"] == expected_strategy
    assert migrated["best_cost"] < migrated["current_cost"]
    assert migrated["projected_savings"] > migrated["migration_cost"]

    # The untouched query only ever considered and kept (after warmup).
    assert set(filtered.events.kinds()) <= {ev.CONSIDERED, ev.SKIPPED_COLD, ev.KEPT}

    # Events are mirrored into each query's metrics recorder.
    assert [e["kind"] for e in joined.metrics.events] == kinds

    # Both outputs are snapshot-equivalent to the relational reference of
    # their *original* plans — migration never changed any answer.
    streams = raw_streams(feed)
    instants = list(range(0, END + 2 * WINDOW, 53))
    joined_reference = RelationalOracle(
        {name: windowed(elements, WINDOW) for name, elements in streams.items()}
    )
    assert joined_reference.check(joined.query.plan, joined.results, instants) is None
    filtered_reference = RelationalOracle({"A": windowed(streams["A"], WINDOW)})
    assert (
        filtered_reference.check(filtered.query.plan, filtered.results, instants)
        is None
    )


@pytest.mark.parametrize("strategy_policy", ["coalesce", "auto"])
def test_migration_events_are_json_serialisable(strategy_policy):
    """``DecisionEvent.to_dict`` promises a flat JSON view: that holds for
    every event of a migrating query, the ``completed`` event carrying the
    half-chronon split time included, and for the metrics export that
    mirrors the events."""
    service = ContinuousQueryService(catalog=catalog(), policy=drift_policy(strategy_policy))
    joined = service.register("join3", JOIN_CQL)
    for source, payload, t in drifting_feed():
        service.publish(source, payload, t)
    service.finish()

    (completed,) = joined.events.of_kind(ev.COMPLETED)
    assert completed["t_split"] % 1 == 0.5
    views = [event.to_dict() for event in joined.events]
    assert json.loads(json.dumps(views)) == views
    export = joined.metrics.to_dict()
    assert json.loads(json.dumps(export))["events"] == export["events"]


@pytest.mark.parametrize("strategy_policy", ["coalesce", "fluid", "auto"])
def test_migrated_event_justifies_the_chosen_strategy(strategy_policy):
    """The ``migrated`` event explains the strategy that actually runs:
    the verifier's reason under ``auto``, the policy's preference
    otherwise — never the auto recommendation for an explicit choice."""
    service = ContinuousQueryService(catalog=catalog(), policy=drift_policy(strategy_policy))
    joined = service.register("join3", JOIN_CQL)
    for source, payload, t in drifting_feed():
        service.publish(source, payload, t)
    service.finish()

    events = joined.events.of_kind(ev.MIGRATED)
    assert events
    assert [e["strategy"] for e in events] == [r.strategy for r in joined.migrations]
    for event in events:
        names_reference_point = "reference-point" in event["justification"]
        assert names_reference_point == (strategy_policy == "auto")
        if strategy_policy != "auto":
            assert repr(strategy_policy) in event["justification"]


def test_shared_optimizer_decides_each_query_as_if_alone():
    """One re-optimizer serves every managed query: each query's audit log
    is the one it gets when registered alone on the same feed."""

    def logs(names):
        service = ContinuousQueryService(catalog=catalog(), policy=drift_policy("auto"))
        texts = {"join3": JOIN_CQL, "count3": AGGREGATE_CQL}
        handles = [service.register(name, texts[name]) for name in names]
        for source, payload, t in drifting_feed():
            service.publish(source, payload, t)
        service.finish()
        return {h.name: [event.to_dict() for event in h.events] for h in handles}

    together = logs(["join3", "count3"])
    for name in ("join3", "count3"):
        assert ev.MIGRATED in [event["kind"] for event in together[name]]
        assert together[name] == logs([name])[name]


def test_rounds_skip_while_statistics_cold():
    policy = ControllerPolicy(period=100, warmup_observations=1000)
    service = ContinuousQueryService(catalog=catalog(), policy=policy)
    handle = service.register("join3", JOIN_CQL)
    for source, payload, t in drifting_feed():
        if t > 2000:
            break
        service.publish(source, payload, t)
    service.finish()
    assert handle.migrations == []
    outcomes = set(handle.events.kinds()) - {ev.CONSIDERED}
    assert outcomes == {ev.SKIPPED_COLD}


def test_in_flight_migration_never_overlapped():
    # A huge warmup keeps the controller from migrating on its own; the
    # in-flight guard fires before the cold-statistics check, so rounds
    # landing inside the manual migration still record the skip.
    policy = ControllerPolicy(period=20, warmup_observations=10_000, cooldown=0)
    service = ContinuousQueryService(catalog=catalog(), policy=policy)
    handle = service.register("join3", JOIN_CQL)
    # Hold the executor in a long manual migration (identity plan change via
    # the builder) so periodic rounds land while it is in flight.
    rng = random.Random(1)
    for t in range(0, 60, 3):
        for source in ("A", "B", "C"):
            service.publish(source, (rng.randint(0, 2),), t)
    new_box = service.registry.builder.build(handle.plan, label="manual")
    handle.executor.start_migration(new_box, GenMig())
    for t in range(60, 240, 3):
        for source in ("A", "B", "C"):
            service.publish(source, (rng.randint(0, 2),), t)
    service.finish()
    kinds = handle.events.kinds()
    assert ev.SKIPPED_IN_FLIGHT in kinds
    assert_no_overlap(kinds)
    # The guard never let the controller stack a second strategy on top.
    assert all(
        report.completed_at >= report.started_at for report in handle.migrations
    )


def test_deregister_completes_in_flight_migration():
    policy = ControllerPolicy(period=10_000)  # controller stays quiet
    service = ContinuousQueryService(catalog=catalog(), policy=policy)
    handle = service.register("join3", JOIN_CQL)
    for t in range(0, 30, 3):
        for source in ("A", "B", "C"):
            service.publish(source, (1,), t)
    new_box = service.registry.builder.build(handle.plan, label="manual")
    handle.executor.start_migration(new_box, GenMig())
    service.deregister("join3")
    assert len(handle.migrations) == 1
    assert not handle.executor.migration_active


AGGREGATE_CQL = (
    f"SELECT COUNT(*) FROM A [RANGE {WINDOW}], B [RANGE {WINDOW}], C [RANGE {WINDOW}] "
    "WHERE A.x = B.y AND B.y = C.z"
)


@pytest.mark.parametrize(
    "preference, codes",
    [
        ("reference-point", ["RP001"]),
        ("parallel-track", ["PT001"]),
        ("fluid", ["FLM001", "FLM002"]),
    ],
)
def test_unsound_strategy_preference_is_logged_and_skips_the_round(preference, codes):
    """The join order under the COUNT goes stale like ``join3``'s, but an
    aggregate rules out every strategy except GenMig with coalesce: a
    policy insisting on another one migrates nothing and says why."""
    policy = ControllerPolicy(
        period=300,
        warmup_observations=25,
        cooldown=1500,
        improvement_threshold=0.85,
        strategy=preference,
    )
    service = ContinuousQueryService(catalog=catalog(), policy=policy)
    counted = service.register("count3", AGGREGATE_CQL)
    for source, payload, t in drifting_feed():
        service.publish(source, payload, t)
    service.finish()

    assert counted.migrations == []
    assert counted.plan.signature() == counted.query.plan.signature()
    kinds = counted.events.kinds()
    assert ev.MIGRATED not in kinds
    refusals = counted.events.of_kind(ev.SKIPPED_UNSOUND_STRATEGY)
    assert refusals, f"no refusal recorded in {kinds}"
    for refusal in refusals:
        assert refusal["strategy"] == preference
        assert refusal["codes"] == codes
    # Every round still ends in exactly one outcome.
    assert kinds.count(ev.CONSIDERED) == len(kinds) - kinds.count(ev.CONSIDERED)
