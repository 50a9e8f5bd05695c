"""The relation catalog.

Maps relation names to their stored :class:`repro.storage.heapfile.HeapFile`
instances, as ERAM's system catalog did. The catalog is the single source of
truth for "what relations exist and how big are they" — the sampling plans
and the time-cost formulas both read relation cardinalities (``N``) and block
counts (``D``) from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.storage.heapfile import HeapFile


class Catalog:
    """A name -> stored-relation registry."""

    def __init__(self) -> None:
        self._relations: dict[str, "HeapFile"] = {}

    def register(self, name: str, relation: "HeapFile") -> None:
        """Register ``relation`` under ``name``; names are unique."""
        if not name:
            raise CatalogError("relation name must be non-empty")
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already exists")
        self._relations[name] = relation

    def drop(self, name: str) -> None:
        """Remove ``name`` from the catalog."""
        if name not in self._relations:
            raise CatalogError(f"relation {name!r} does not exist")
        del self._relations[name]

    def get(self, name: str) -> "HeapFile":
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"relation {name!r} does not exist") from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        """All registered relation names, in registration order."""
        return list(self._relations)


def relation_fingerprint(catalog: Catalog, names: Iterable[str]) -> str:
    """Size fingerprint of base relations: ``name:tuples:blocks;…``.

    Two catalog states agree on a fingerprint only when every named
    relation has the same tuple and block count — a plan or evidence
    recorded against one data size is never replayed against another.
    The plan cache and the synopsis catalog both key on it.
    """
    parts = []
    for name in sorted(set(names)):
        relation = catalog.get(name)
        parts.append(f"{name}:{relation.tuple_count}:{relation.block_count}")
    return ";".join(parts)


def fingerprint_relations(fingerprint: str) -> set[str]:
    """The relation names a :func:`relation_fingerprint` covers."""
    return {part.split(":", 1)[0] for part in fingerprint.split(";") if part}
