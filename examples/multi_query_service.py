"""Multi-query service: shared ingestion, autonomous plan migration.

Two continuous queries are registered against one market-data feed. Half
way through the run the stream rates flip — bids and asks flood while
trades go quiet — and the autonomic controller detects the drift from its
own statistics, migrates exactly the stale three-way join (the filter
query is left alone), and records every decision it took.

No manual ``start_migration`` call appears below: the controller does
everything from the ingest hub's progress ticks.

Run with:  python examples/multi_query_service.py
"""

import random

from repro import Catalog, ContinuousQueryService, ControllerPolicy

WINDOW = 40


def drifting_feed(end=4200, flip=1200, seed=5):
    """(source, payload, t) triples whose rates flip at ``flip``."""
    rng = random.Random(seed)
    feed = []
    for t in range(end):
        ab_step, trade_step = (50, 6) if t < flip else (3, 150)
        if t % ab_step == 0:
            feed.append(("bids", (rng.randint(0, 3),), t))
        if t % ab_step == 1:
            feed.append(("asks", (rng.randint(0, 3),), t))
        if t % trade_step == 2:
            feed.append(("trades", (rng.randint(0, 3),), t))
    return feed


def main():
    catalog = Catalog({"bids": ("b",), "asks": ("a",), "trades": ("v",)})
    policy = ControllerPolicy(
        period=300,               # a re-optimization round every 300 chronons
        warmup_observations=25,   # don't decide on cold statistics
        cooldown=1500,            # hysteresis after a completed migration
        improvement_threshold=0.85,
        migration_cost_per_value=0.01,
        savings_horizon=500.0,
    )
    service = ContinuousQueryService(catalog=catalog, policy=policy)

    joined = service.register(
        "spread",
        f"SELECT * FROM bids [RANGE {WINDOW}], asks [RANGE {WINDOW}], "
        f"trades [RANGE {WINDOW}] WHERE bids.b = asks.a AND asks.a = trades.v",
    )
    filtered = service.register(
        "big-bids", f"SELECT * FROM bids [RANGE {WINDOW}] WHERE bids.b > 1"
    )

    print("registered:", ", ".join(service.names()))
    print("initial plan:", joined.plan.signature())
    print()

    for source, payload, t in drifting_feed():
        service.publish(source, payload, t)
    service.finish()

    print(f"'spread' migrations: {len(joined.migrations)}")
    for report in joined.migrations:
        print(
            f"  {report.strategy} at t={report.started_at} "
            f"(T_split={report.t_split}, duration={report.duration})"
        )
    print("final plan:  ", joined.plan.signature())
    print(f"'big-bids' migrations: {len(filtered.migrations)} (untouched)")
    print()

    print("decision history for 'spread':")
    for event in joined.events:
        detail = dict(event.detail)
        note = ""
        if event.kind == "kept":
            note = f"  best/current = {detail['best_cost'] / detail['current_cost']:.2f}"
        elif event.kind == "migrated":
            note = f"  -> {detail['strategy']}"
        print(f"  t={event.at:>5}  {event.kind}{note}")

    print()
    print(f"'spread' results:   {len(joined.results)} elements")
    print(f"'big-bids' results: {len(filtered.results)} elements")


if __name__ == "__main__":
    main()
