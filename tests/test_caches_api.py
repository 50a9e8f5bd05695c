"""The unified cache registry — ``repro.caches``.

One management surface for all three process-wide caches (kernels, plans,
bufferpool): named handles with ``info()``/``clear()`` and whole-
registry ``caches.info()``/``caches.clear()``. The relation-keyed
invalidation hooks stay with their caches as mutation plumbing.
"""

from __future__ import annotations

import pytest

from repro import caches
from repro.core.database import Database
from repro.errors import ReproError
from repro.relational.expression import rel
from repro.relational.predicate import cmp


@pytest.fixture(autouse=True)
def fresh_registry():
    caches.clear()
    yield
    caches.clear()


def populate_all_caches():
    """One estimate that touches kernels, plans and the buffer pool."""
    db = Database(seed=17)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 7) for i in range(3_000)],
    )
    db.estimate(rel("r1").where(cmp("a", "<", 3)), quota=4.0, seed=1)


class TestRegistry:
    def test_names_cover_every_cache(self):
        assert caches.names() == ("kernels", "plans", "bufferpool")

    def test_get_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown cache"):
            caches.get("plans_cache")

    def test_handles_carry_descriptions(self):
        for handle in caches.handles():
            assert handle.description
            assert caches.get(handle.name) is handle

    def test_info_returns_counters_for_every_cache(self):
        populate_all_caches()
        info = caches.info()
        assert set(info) == set(caches.names())
        for counters in info.values():
            for field in ("hits", "misses", "maxsize", "currsize"):
                assert getattr(counters, field) >= 0
        assert info["plans"].currsize >= 1
        assert info["bufferpool"].currsize >= 1
        assert info["kernels"].currsize >= 1

    def test_clear_one_cache_leaves_the_rest(self):
        populate_all_caches()
        assert caches.get("plans").info().currsize >= 1
        pooled_before = caches.get("bufferpool").info().currsize
        caches.clear("plans")
        assert caches.get("plans").info().currsize == 0
        assert caches.get("bufferpool").info().currsize == pooled_before >= 1

    def test_clear_all(self):
        populate_all_caches()
        caches.clear()
        for name, counters in caches.info().items():
            assert counters.currsize == 0, name
            assert counters.hits == 0, name


class TestLegacyNames:
    def test_relation_invalidation_hooks_do_not_warn(self, recwarn):
        """Mutation plumbing is public API: calling it never warns."""
        from repro.planner.cache import invalidate_plan_cache_relation
        from repro.storage.bufferpool import invalidate_bufferpool_relation

        invalidate_plan_cache_relation("nope")
        invalidate_bufferpool_relation("nope")
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
