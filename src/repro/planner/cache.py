"""Process-wide logical-plan cache keyed by canonical IR identity.

Planning is pure tree rewriting and cheap, but the server executes the
same query shapes over and over (the paper's fixed-mix workload
assumption), and every lowered plan is planned at construction time —
the dispatch session's and the one admission control prices the request
with (``Database.plan``). Caching the logical phase makes repeat planning
O(hash).

The key is the query's :meth:`~repro.relational.expression.Expression.
structural_hash` — so ``A ∩ B`` and ``B ∩ A``, or differently-ordered but
equal selection formulas, share one entry — paired with a fingerprint of
the referenced base relations' cardinalities, because
:class:`~repro.planner.rules.JoinChainReorder` decides by estimated rows:
loading different data into the same catalog names must miss, not replay a
stale decision. Hint-dependent planning never touches the cache at all
(see :func:`repro.planner.rewrite.plan_logical`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.catalog.catalog import (
    Catalog,
    fingerprint_relations,
    relation_fingerprint,
)
from repro.planner.rules import RuleApplication
from repro.relational.expression import Expression

PLAN_CACHE_MAXSIZE = 256

CacheKey = tuple[str, str]
CacheValue = tuple[Expression, tuple[RuleApplication, ...]]

_lock = threading.Lock()
_cache: "OrderedDict[CacheKey, CacheValue]" = OrderedDict()
_hits = 0
_misses = 0


@dataclass(frozen=True)
class PlanCacheInfo:
    """Counters in the style of ``functools.lru_cache``'s ``cache_info``."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def cache_key(expr: Expression, catalog: Catalog) -> CacheKey:
    """(structural hash, base-relation size fingerprint) for ``expr``."""
    return (
        expr.structural_hash(),
        relation_fingerprint(catalog, expr.base_relations()),
    )


def lookup(key: CacheKey) -> CacheValue | None:
    """Cached planning outcome for ``key``, refreshing LRU recency."""
    global _hits, _misses
    with _lock:
        value = _cache.get(key)
        if value is None:
            _misses += 1
            return None
        _cache.move_to_end(key)
        _hits += 1
        return value


def store(key: CacheKey, value: CacheValue) -> None:
    """Insert a planning outcome, evicting the least recently used entry."""
    with _lock:
        _cache[key] = value
        _cache.move_to_end(key)
        while len(_cache) > PLAN_CACHE_MAXSIZE:
            _cache.popitem(last=False)


def _plan_cache_info() -> PlanCacheInfo:
    """Current hit/miss/size counters of the process-wide plan cache."""
    with _lock:
        return PlanCacheInfo(
            hits=_hits,
            misses=_misses,
            maxsize=PLAN_CACHE_MAXSIZE,
            currsize=len(_cache),
        )



def invalidate_plan_cache_relation(name: str) -> int:
    """Drop every entry whose fingerprint references relation ``name``.

    Called on committed mutations (:meth:`repro.core.database.Database.
    append_rows` / ``drop_relation``). The size fingerprint already makes
    *grown* relations miss naturally, but a drop-and-recreate that lands on
    the same cardinalities would silently replay a
    :class:`~repro.planner.rules.JoinChainReorder` decision made for the
    old data — so mutations evict explicitly. Returns the eviction count.
    """
    evicted = 0
    with _lock:
        for key in list(_cache):
            if name in fingerprint_relations(key[1]):
                del _cache[key]
                evicted += 1
    return evicted


def _clear_plan_cache() -> None:
    """Drop all entries and reset counters (tests; catalog reloads)."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
