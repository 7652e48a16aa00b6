"""Network monitoring: adaptive join reordering at runtime.

A security team correlates three event streams — connection attempts,
IDS alerts, and firewall denies — joined on source address over sliding
windows.  Early on, alerts are rare; later an incident makes them the
dominant stream.  The service's autonomic controller watches the live
statistics and, when the installed left-deep join order becomes
inefficient, migrates to a better order — with the strategy the plan
verifier picks for the two boxes — without stopping the query.

Run with:  python examples/network_monitoring.py
"""

import random

from repro import ContinuousQueryService, ControllerPolicy, first_divergence
from repro.optimizer import CostModel
from repro.plans import Comparison, Field, JoinNode, PhysicalBuilder, Query, Source

WINDOW = 1_000  # 1 s sliding windows (millisecond chronons)

CONNECTIONS = Source("conn", ["src"])
ALERTS = Source("alert", ["src"])
DENIES = Source("deny", ["src"])


def initial_plan():
    """(conn ⋈ alert) ⋈ deny — chosen when alerts were rare."""
    return JoinNode(
        JoinNode(CONNECTIONS, ALERTS,
                 Comparison("=", Field("conn.src"), Field("alert.src"))),
        DENIES,
        Comparison("=", Field("alert.src"), Field("deny.src")),
    )


def make_feed(seed=23):
    """Alerts are sparse for 5 s, then burst to 4x the connection rate.

    Returns ``(source, payload, t)`` triples in timestamp order.
    """
    rng = random.Random(seed)
    hosts = [f"10.0.0.{k}" for k in range(12)]
    conn = [("conn", rng.choice(hosts), t) for t in range(0, 12_000, 20)]
    deny = [("deny", rng.choice(hosts), t) for t in range(3, 12_000, 60)]
    alert = [("alert", rng.choice(hosts), t) for t in range(7, 5_000, 400)]
    alert += [("alert", rng.choice(hosts), t) for t in range(5_000, 12_000, 5)]
    return sorted(conn + alert + deny, key=lambda item: item[2])


def run(adaptive: bool):
    windows = {name: WINDOW for name in ("conn", "alert", "deny")}
    service = ContinuousQueryService(
        # Nested-loops joins, as in the paper's experiments: probe costs
        # scale with state sizes, which is what makes join order matter.
        builder=PhysicalBuilder(force_nested_loops=True),
        cost_model=CostModel(default_selectivity=0.05),
        # A re-optimization round every 2 s, as a DSMS would schedule them.
        policy=ControllerPolicy(
            period=2_000,
            warmup_observations=2,
            improvement_threshold=0.9,
            migration_cost_per_value=0.0,
        ),
    )
    handle = service.register("correlate", Query(initial_plan(), windows))
    if not adaptive:
        service.controller.release(handle)
    for source, payload, t in make_feed():
        service.publish(source, payload, t)
    service.finish()
    for event in handle.events.of_kind("migrated"):
        print(f"  [t={event.at} ms] controller migrates to: {event['new_plan']}")
    return handle.results, handle.executor


def main():
    print("Plan installed at subscription time:")
    print(initial_plan().pretty())

    print("\n-- static run (no re-optimization) --")
    static_out, static_executor = run(adaptive=False)
    print(f"results: {len(static_out)}, "
          f"cost: {static_executor.meter.total:,} units")

    print("\n-- adaptive run (autonomic controller) --")
    adaptive_out, adaptive_executor = run(adaptive=True)
    print(f"results: {len(adaptive_out)}, "
          f"cost: {adaptive_executor.meter.total:,} units")
    for report in adaptive_executor.migration_log:
        print(f"  migration: {report.strategy}, T_split={report.t_split}, "
              f"duration={report.duration} ms")

    equivalent = first_divergence(static_out, adaptive_out) is None
    saved = 1 - adaptive_executor.meter.total / static_executor.meter.total
    print(f"\nsnapshot-equivalent outputs: {equivalent}")
    print(f"processing cost saved by adapting: {saved:.1%}")


if __name__ == "__main__":
    main()
