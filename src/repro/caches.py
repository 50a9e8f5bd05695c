"""Unified management surface for every process-wide cache.

One registry of named handles over the library's three process-wide
caches (compiled predicates, logical plans and the default buffer pool,
which no read path uses — see :mod:`repro.storage.bufferpool`)::

    from repro import caches

    caches.names()                    # ('kernels', 'plans', 'bufferpool')
    caches.info()                     # {name: info dataclass} for all caches
    caches.get("plans").info()        # one cache's counters
    caches.get("bufferpool").clear()  # drop one cache
    caches.clear()                    # drop them all (test isolation)

Each handle's ``info()`` returns that cache's own counters dataclass
(every one carries at least ``hits``/``misses``/``maxsize``/``currsize``,
``lru_cache.cache_info()``-style), and ``clear()`` empties the cache and
resets its counters. The *relation-keyed invalidation* hook
(``invalidate_plan_cache_relation``) lives with its cache — it is
mutation plumbing, not management surface.

The registry holds no cache state itself: handles call through to the
owning modules, so a cache's behavior is unchanged whether it is managed
here or poked directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReproError


@dataclass(frozen=True)
class CacheHandle:
    """One named cache: ``info()`` for counters, ``clear()`` to empty it.

    ``description`` says what the cache holds and what clearing costs
    (all three are pure optimizations — clearing is always safe).
    """

    name: str
    description: str
    _info: Callable[[], Any]
    _clear: Callable[[], None]

    def info(self) -> Any:
        """The cache's current counters (its own info dataclass)."""
        return self._info()

    def clear(self) -> None:
        """Empty the cache and reset its counters."""
        self._clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheHandle({self.name!r})"


def _kernels_info() -> Any:
    from repro.kernels.cache import _kernel_cache_info

    return _kernel_cache_info()


def _kernels_clear() -> None:
    from repro.kernels.cache import _clear_kernel_cache

    _clear_kernel_cache()


def _plans_info() -> Any:
    from repro.planner.cache import _plan_cache_info

    return _plan_cache_info()


def _plans_clear() -> None:
    from repro.planner.cache import _clear_plan_cache

    _clear_plan_cache()


def _bufferpool_info() -> Any:
    from repro.storage.bufferpool import _bufferpool_cache_info

    return _bufferpool_cache_info()


def _bufferpool_clear() -> None:
    from repro.storage.bufferpool import _clear_bufferpool_cache

    _clear_bufferpool_cache()


_REGISTRY: tuple[CacheHandle, ...] = (
    CacheHandle(
        "kernels",
        "compiled-predicate LRU (repro.kernels.cache)",
        _kernels_info,
        _kernels_clear,
    ),
    CacheHandle(
        "plans",
        "logical-plan cache keyed by canonical IR identity "
        "(repro.planner.cache)",
        _plans_info,
        _plans_clear,
    ),
    CacheHandle(
        "bufferpool",
        "process-wide default block/decoded-column buffer pool, unused by "
        "the engine (repro.storage.bufferpool)",
        _bufferpool_info,
        _bufferpool_clear,
    ),
)

_BY_NAME = {handle.name: handle for handle in _REGISTRY}


def names() -> tuple[str, ...]:
    """Every registered cache name, in registration order."""
    return tuple(handle.name for handle in _REGISTRY)


def get(name: str) -> CacheHandle:
    """The handle for cache ``name`` (see :func:`names`)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"unknown cache {name!r}; registered caches: "
            f"{', '.join(names())}"
        ) from None


def handles() -> tuple[CacheHandle, ...]:
    """All registered handles, in registration order."""
    return _REGISTRY


def info() -> dict[str, Any]:
    """``{name: counters}`` across every registered cache."""
    return {handle.name: handle.info() for handle in _REGISTRY}


def clear(name: str | None = None) -> None:
    """Empty one cache (``name``) or all of them (``name=None``)."""
    targets = (_REGISTRY if name is None else (get(name),))
    for handle in targets:
        handle.clear()
