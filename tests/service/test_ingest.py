"""The shared ingest hub: fan-out, global order, pause semantics."""

import pytest

from repro.cql import Catalog
from repro.service import IngestHub, QueryRegistry
from repro.temporal import Batch, element


def publish_batch(hub, source, payloads, at):
    """Publish several tuples sharing timestamp ``at`` as one batch."""
    elements = [element(payload, at, at + 1) for payload in payloads]
    return hub.push_batch(source, Batch(elements, source=source))


@pytest.fixture
def catalog():
    return Catalog({"bids": ("item", "price"), "sales": ("item", "amount")})


@pytest.fixture
def registry(catalog):
    return QueryRegistry(catalog=catalog)


@pytest.fixture
def hub(registry):
    return IngestHub(registry)


BIDS_ALL = "SELECT * FROM bids [RANGE 50]"
JOIN = (
    "SELECT * FROM bids [RANGE 50], sales [RANGE 50] "
    "WHERE bids.item = sales.item"
)


class TestFanOut:
    def test_shared_source_reaches_every_subscriber(self, registry, hub):
        first = registry.register("q1", BIDS_ALL)
        second = registry.register("q2", BIDS_ALL)
        delivered = hub.publish("bids", ("pen", 10), 0)
        assert delivered == 2
        hub.finish()
        assert [e.payload for e in first.results] == [("pen", 10)]
        assert [e.payload for e in second.results] == [("pen", 10)]

    def test_unrelated_source_becomes_heartbeat(self, registry, hub):
        bids_only = registry.register("q1", BIDS_ALL)
        hub.publish("bids", ("pen", 10), 0)
        assert hub.publish("sales", ("pen", 3), 40) == 0
        # The sales element advanced the bids-only executor's clock, so its
        # windowed state can expire without a bids arrival.
        assert bids_only.executor.clock == 40

    def test_multi_source_query_joins_hub_feeds(self, registry, hub):
        joined = registry.register("j", JOIN)
        hub.publish("bids", ("pen", 10), 0)
        hub.publish("sales", ("pen", 3), 5)
        hub.finish()
        assert [e.payload for e in joined.results] == [("pen", 10, "pen", 3)]

    def test_out_of_order_publish_rejected(self, registry, hub):
        registry.register("q1", BIDS_ALL)
        hub.publish("bids", ("pen", 10), 100)
        with pytest.raises(ValueError, match="globally ordered"):
            hub.publish("sales", ("pen", 3), 99)

    def test_push_ready_made_element(self, registry, hub):
        handle = registry.register("q1", BIDS_ALL)
        hub.push("bids", element(("mug", 7), 3, 4))
        hub.finish()
        assert [e.payload for e in handle.results] == [("mug", 7)]


class TestPauseSemantics:
    def test_paused_query_misses_elements_but_keeps_time(self, registry, hub):
        handle = registry.register("q1", BIDS_ALL)
        hub.publish("bids", ("pen", 1), 0)
        registry.pause("q1")
        hub.publish("bids", ("mug", 2), 10)
        registry.resume("q1")
        hub.publish("bids", ("hat", 3), 20)
        hub.finish()
        assert [e.payload for e in handle.results] == [("pen", 1), ("hat", 3)]
        # Watermarks advanced through the pause: no stale state, no reorder.
        assert handle.executor.clock >= 20

    def test_heartbeat_advances_everyone(self, registry, hub):
        first = registry.register("q1", BIDS_ALL)
        second = registry.register("q2", JOIN)
        hub.advance(500)
        assert first.executor.clock == 500
        assert second.executor.clock == 500

    def test_progress_callback_fires(self, registry, hub):
        registry.register("q1", BIDS_ALL)
        seen = []
        hub.on_progress = seen.append
        hub.publish("bids", ("pen", 1), 5)
        hub.advance(10)
        assert seen == [5, 10]


class TestBatchIngest:
    def test_publish_batch_matches_per_element_publish(self, catalog):
        outputs = []
        for batched in (False, True):
            registry = QueryRegistry(catalog=catalog)
            hub = IngestHub(registry)
            handle = registry.register("q1", BIDS_ALL)
            if batched:
                publish_batch(hub, "bids", [("pen", 1), ("mug", 2)], 0)
                publish_batch(hub, "bids", [("hat", 3)], 7)
            else:
                hub.publish("bids", ("pen", 1), 0)
                hub.publish("bids", ("mug", 2), 0)
                hub.publish("bids", ("hat", 3), 7)
            hub.finish()
            outputs.append(
                [(e.payload, e.start, e.end, e.flag) for e in handle.results]
            )
        assert outputs[0] == outputs[1]

    def test_publish_batch_counts_deliveries_and_published(self, registry, hub):
        registry.register("q1", BIDS_ALL)
        registry.register("q2", BIDS_ALL)
        assert publish_batch(hub, "bids", [("pen", 1), ("mug", 2)], 0) == 4
        assert hub.published == 2
        assert hub.clock == 0

    def test_batch_heartbeats_non_consumers_to_watermark(self, registry, hub):
        from repro.temporal import Batch

        bids_only = registry.register("q1", BIDS_ALL)
        batch = Batch(
            [element(("pen", 3), 10, 11), element(("hat", 5), 12, 13)],
            watermark=20,
            source="sales",
        )
        assert hub.push_batch("sales", batch) == 0
        assert bids_only.executor.clock == 20
        assert hub.clock == 20

    def test_paused_query_is_heartbeat_only_per_batch(self, registry, hub):
        handle = registry.register("q1", BIDS_ALL)
        registry.pause("q1")
        publish_batch(hub, "bids", [("pen", 1), ("mug", 2)], 10)
        registry.resume("q1")
        publish_batch(hub, "bids", [("hat", 3)], 20)
        hub.finish()
        assert [e.payload for e in handle.results] == [("hat", 3)]
        assert handle.executor.clock >= 20

    def test_out_of_order_batch_rejected(self, registry, hub):
        registry.register("q1", BIDS_ALL)
        hub.publish("bids", ("pen", 1), 100)
        with pytest.raises(ValueError, match="globally ordered"):
            publish_batch(hub, "sales", [("pen", 3)], 99)

    def test_progress_fires_once_per_batch(self, registry, hub):
        registry.register("q1", BIDS_ALL)
        seen = []
        hub.on_progress = seen.append
        publish_batch(hub, "bids", [("pen", 1), ("mug", 2), ("hat", 3)], 5)
        assert seen == [5]


class TestProgressFanOut:
    """A query that does not consume a published element is owed progress,
    once: one all-sources ``advance`` per executor per publish — not one
    per source — and the results are those of the per-source promises."""

    CATALOG = {
        "bids": ("item", "price"),
        "sales": ("item", "amount"),
        "ticks": ("n",),
    }
    #: Join, stateless chain (filter + projection) and a grouped aggregate
    #: over two of the three sources.
    QUERY = (
        "SELECT bids.item, COUNT(*), SUM(sales.amount) "
        "FROM bids [RANGE 20], sales [RANGE 20] "
        "WHERE bids.item = sales.item AND bids.price > 2 GROUP BY bids.item"
    )
    FEED = [
        ("bids", ("pen", 5), 0),
        ("ticks", (1,), 3),
        ("sales", ("pen", 2), 4),
        ("ticks", (2,), 9),
        ("bids", ("mug", 1), 12),
        ("sales", ("pen", 7), 12),
        ("ticks", (3,), 30),
        ("bids", ("pen", 9), 31),
        ("ticks", (4,), 60),
    ]

    def run(self, per_source):
        """Feed FEED; foreign elements become progress — through the hub,
        or (the reference) as one ``advance`` per source by hand."""
        registry = QueryRegistry(catalog=Catalog(self.CATALOG))
        hub = IngestHub(registry)
        handle = registry.register("q", self.QUERY)
        executor = handle.executor
        promises = []
        advance = executor.advance

        def recording_advance(name, t):
            promises.append((name, t))
            advance(name, t)

        executor.advance = recording_advance
        for source, payload, at in self.FEED:
            if not per_source:
                hub.publish(source, payload, at)
            elif source in executor.sources:
                executor.push(source, element(payload, at, at + 1))
            else:
                for name in executor.sources:
                    executor.advance(name, at)
        executor.finish()
        results = [(e.payload, e.start, e.end, e.flag) for e in handle.results]
        return promises, results

    def test_one_progress_call_per_foreign_publish(self):
        promises, results = self.run(per_source=False)
        assert promises == [(None, 3), (None, 9), (None, 30), (None, 60)]
        per_source_promises, reference = self.run(per_source=True)
        assert len(per_source_promises) == 2 * len(promises)
        assert results == reference
        assert results  # the feed does produce aggregates

    def test_hub_heartbeat_is_one_call_per_executor(self, registry, hub):
        handle = registry.register("j", JOIN)
        promises = []
        handle.executor.advance = lambda name, t: promises.append((name, t))
        hub.advance(7)
        assert promises == [(None, 7)]
