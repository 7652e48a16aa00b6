"""Query registry lifecycle: register, pause, resume, deregister."""

import pytest

from repro.cql import Catalog
from repro.plans import Query
from repro.plans.logical import Source
from repro.service import ACTIVE, PAUSED, STOPPED, QueryRegistry


@pytest.fixture
def catalog():
    return Catalog({"bids": ("item", "price"), "sales": ("item", "amount")})


@pytest.fixture
def registry(catalog):
    return QueryRegistry(catalog=catalog)


CQL = "SELECT * FROM bids [RANGE 50] WHERE bids.price > 10"


class TestRegister:
    def test_register_from_cql(self, registry):
        handle = registry.register("expensive", CQL)
        assert handle.name == "expensive"
        assert handle.state == ACTIVE
        assert list(handle.query.windows) == ["bids"]
        assert "expensive" in registry
        assert registry.names() == ["expensive"]

    def test_register_from_query_object(self, registry):
        query = Query(Source("bids", ["item", "price"]), {"bids": 30})
        handle = registry.register("raw", query)
        assert handle.plan.signature() == "bids"
        assert handle.executor.windows == {"bids": 30}

    def test_duplicate_name_rejected(self, registry):
        registry.register("q", CQL)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("q", CQL)

    def test_cql_without_catalog_rejected(self):
        registry = QueryRegistry()
        with pytest.raises(ValueError, match="catalog"):
            registry.register("q", CQL)

    def test_each_query_gets_own_executor_and_log(self, registry):
        first = registry.register("a", CQL)
        second = registry.register("b", CQL)
        assert first.executor is not second.executor
        assert first.events is not second.events
        assert first.metrics is not second.metrics
        assert len(registry) == 2


class TestLifecycle:
    def test_pause_and_resume(self, registry):
        handle = registry.register("q", CQL)
        registry.pause("q")
        assert handle.state == PAUSED
        assert registry.active() == []
        registry.resume("q")
        assert handle.state == ACTIVE
        assert registry.active() == [handle]

    def test_pause_requires_active(self, registry):
        registry.register("q", CQL)
        registry.pause("q")
        with pytest.raises(ValueError):
            registry.pause("q")

    def test_resume_requires_paused(self, registry):
        registry.register("q", CQL)
        with pytest.raises(ValueError):
            registry.resume("q")

    def test_deregister_drains_and_removes(self, registry):
        handle = registry.register("q", CQL)
        handle.executor.push("bids", _element(("pen", 42), 0))
        returned = registry.deregister("q")
        assert returned is handle
        assert handle.state == STOPPED
        assert "q" not in registry
        # The executor was drained: the surviving element was delivered.
        assert [e.payload for e in handle.results] == [("pen", 42)]

    def test_unknown_name_raises(self, registry):
        with pytest.raises(KeyError, match="no query named"):
            registry.get("ghost")


def _element(payload, t):
    from repro.temporal import element

    return element(payload, t, t + 1)
