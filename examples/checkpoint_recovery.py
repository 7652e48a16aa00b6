"""Crash recovery: checkpoint a live service, kill it, restore, replay.

A join and a filter query run over one market feed. Half way through the
run a snapshot is written; the service is then discarded — simulating a
process crash — and rebuilt from the snapshot file alone. Replaying the
durable feed from the recorded offsets produces output byte-identical to
an uninterrupted twin, which the script verifies element by element.

A second act feeds the same service through a ``DisorderBuffer``: the
feed arrives shuffled within a bounded slack (network skew), is repaired
to hub order at the edge, and an over-slack straggler is rejected with a
typed error instead of corrupting the windows downstream.

Run with:  python examples/checkpoint_recovery.py
"""

import os
import random
import tempfile

from repro import Catalog, ContinuousQueryService, ControllerPolicy
from repro.recovery import (
    CheckpointManager,
    DisorderBuffer,
    DisorderError,
    replay_tail,
    restore_service,
)

WINDOW = 50
JOIN_CQL = (
    f"SELECT * FROM bids [RANGE {WINDOW}], asks [RANGE {WINDOW}] "
    "WHERE bids.item = asks.item"
)
FILTER_CQL = f"SELECT * FROM bids [RANGE {WINDOW}] WHERE bids.price > 60"


def make_service():
    service = ContinuousQueryService(
        catalog=Catalog({"bids": ("item", "price"), "asks": ("item", "price")}),
        policy=ControllerPolicy(period=10**9),  # controller out of the picture
    )
    service.register("spread", JOIN_CQL)
    service.register("pricey", FILTER_CQL)
    return service


def make_feed(length=600, seed=3):
    """The durable input log: (source, payload, t) in global time order."""
    rng = random.Random(seed)
    return [
        (
            "bids" if i % 2 == 0 else "asks",
            (rng.randint(0, 4), rng.randint(0, 99)),
            i,
        )
        for i in range(length)
    ]


def main():
    feed = make_feed()
    cut = len(feed) // 2

    # The uninterrupted twin: the answer recovery must reproduce.
    baseline = make_service()
    for source, payload, t in feed:
        baseline.publish(source, payload, t)
    baseline.finish()

    # --- Act 1: checkpoint, crash, restore, replay --------------------- #
    victim = make_service()
    for source, payload, t in feed[:cut]:
        victim.publish(source, payload, t)

    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    size = CheckpointManager(victim).checkpoint(path)
    print(f"checkpoint after {cut} elements: {size} bytes")
    del victim  # the process dies here; only the snapshot file survives

    restored = restore_service(path, policy=ControllerPolicy(period=10**9))
    os.unlink(path)
    print(
        f"restored: clock={restored.hub.clock}, "
        f"offsets={restored.hub.offsets}"
    )

    # Replay the durable log; the recorded offsets skip the consumed prefix.
    from repro.temporal import element

    log = [(source, element(payload, t, t + 1)) for source, payload, t in feed]
    replayed = replay_tail(restored, log)
    restored.finish()
    print(f"replayed {replayed} tail elements")

    for name in ("spread", "pricey"):
        ours = restored.registry.get(name).results
        theirs = baseline.registry.get(name).results
        verdict = "byte-identical" if ours == theirs else "DIVERGED"
        print(f"  {name}: {len(ours)} results, {verdict}")
        assert ours == theirs

    # --- Act 2: bounded-disorder admission ----------------------------- #
    slack = 12
    rng = random.Random(7)
    shuffled = sorted(log, key=lambda pair: pair[1].start + rng.randrange(slack))

    subject = make_service()
    buffer = DisorderBuffer(subject.hub, slack=slack)
    for source, item in shuffled:
        buffer.push(source, item)
    buffer.flush()
    subject.finish()
    print(
        f"disordered feed: {buffer.reordered} of {buffer.admitted} elements "
        f"arrived out of order, repaired within slack {slack}"
    )
    for name in ("spread", "pricey"):
        assert (
            subject.registry.get(name).results
            == baseline.registry.get(name).results
        )
    print("  outputs identical to the ordered feed")

    straggler = make_service()
    late = DisorderBuffer(straggler.hub, slack=slack)
    late.publish("bids", (1, 10), 100)
    try:
        late.publish("asks", (1, 10), 100 - slack - 1)
    except DisorderError as error:
        print(f"over-slack straggler rejected: {error}")


if __name__ == "__main__":
    main()
