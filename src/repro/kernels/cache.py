"""Compilation cache — predicates compiled once, not per stage.

``Predicate`` nodes and :class:`~repro.catalog.schema.Schema` are frozen
(hashable) dataclasses, so one process-wide LRU maps
``(predicate, schema)`` to its compiled row function *and* vectorized mask
function. The staged nodes hold the compiled pair from construction on —
nothing is recompiled per stage — and repeated queries over the same
formula (a serving workload's common case) share one compilation.

Predicates carrying unhashable constants fall back to direct compilation;
the cache is an optimization, never a requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.catalog.schema import Schema
from repro.relational.predicate import ColumnMask, Predicate
from repro.storage.block import Row


@dataclass(frozen=True)
class CompiledPredicate:
    """Both compilations of one formula against one schema."""

    row_fn: Callable[[Row], bool]
    mask_fn: ColumnMask
    comparison_count: int


def _compile(predicate: Predicate, schema: Schema) -> CompiledPredicate:
    return CompiledPredicate(
        row_fn=predicate.compile(schema),
        mask_fn=predicate.compile_mask(schema),
        comparison_count=predicate.comparison_count(),
    )


_cached_compile = lru_cache(maxsize=512)(_compile)


def compiled_predicate(predicate: Predicate, schema: Schema) -> CompiledPredicate:
    """Compiled (row, mask) pair for ``predicate`` bound to ``schema``."""
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
