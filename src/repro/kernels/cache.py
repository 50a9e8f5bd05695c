"""Compilation cache — predicates compiled once, not per stage.

``Predicate`` nodes and :class:`~repro.catalog.schema.Schema` are frozen
(hashable) dataclasses, so one process-wide LRU maps
``(predicate, schema)`` to its vectorized mask function. The staged nodes
and the exact evaluator hold the compiled mask from construction on —
nothing is recompiled per stage — and repeated queries over the same
formula (a serving workload's common case) share one compilation. The
row-at-a-time function is ``predicate.compile(schema)``, the reference.

Predicates carrying unhashable constants fall back to direct compilation;
the cache is an optimization, never a requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.catalog.schema import Schema
from repro.relational.predicate import ColumnMask, Predicate


@dataclass(frozen=True)
class CompiledPredicate:
    """The column-mask compilation of one formula against one schema."""

    mask_fn: ColumnMask


def _compile(predicate: Predicate, schema: Schema) -> CompiledPredicate:
    return CompiledPredicate(mask_fn=predicate.compile_mask(schema))


_cached_compile = lru_cache(maxsize=512)(_compile)


def compiled_predicate(predicate: Predicate, schema: Schema) -> CompiledPredicate:
    """Compiled mask for ``predicate`` bound to ``schema``."""
    try:
        return _cached_compile(predicate, schema)
    except TypeError:  # unhashable constant inside the formula
        return _compile(predicate, schema)


@dataclass(frozen=True)
class KernelCacheInfo:
    """Counters of the predicate-compile LRU, ``cache_info()``-style.

    Matches the shape of :class:`repro.planner.cache.PlanCacheInfo` and
    :class:`repro.storage.bufferpool.BufferPoolInfo` — one introspection
    surface across all three process-wide caches.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int


def _kernel_cache_info() -> KernelCacheInfo:
    """Hit/miss/size counters of the predicate-compile LRU."""
    info = _cached_compile.cache_info()
    return KernelCacheInfo(
        hits=info.hits,
        misses=info.misses,
        maxsize=info.maxsize or 0,
        currsize=info.currsize,
    )


def _clear_kernel_cache() -> None:
    """Drop the compile LRU and reset its counters (tests)."""
    _cached_compile.cache_clear()
