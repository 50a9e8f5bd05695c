"""Relation schemas.

A :class:`Schema` is an ordered list of named, typed attributes. It derives
the quantities the storage layer and the time-cost formulas need:

* ``tuple_size`` — bytes per tuple (sum of attribute widths);
* ``blocking_factor(block_size)`` — tuples per disk block, the ``blocking
  factor`` of the paper's ``p = sel * points / blockingfactor`` equation.

Schemas are immutable; operations such as :meth:`project` and :meth:`join`
return new schemas. Attribute-compatibility (same names, same types, same
order) is required for Union / Difference / Intersect, exactly as the paper
requires "degree- and attribute-compatible relations" (Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.types import AttributeType
from repro.errors import SchemaError

_STORED_AS_GIVEN = {
    AttributeType.INT: {int},
    AttributeType.FLOAT: {float},
    AttributeType.STR: {str},
}
"""Per attribute type, the Python types :meth:`AttributeType.validate`
returns unchanged (bool is not int here: ``validate`` rejects it)."""


@dataclass(frozen=True)
class Attribute:
    """A single named, typed attribute with a storage width in bytes."""

    name: str
    type: AttributeType
    width: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.width < 0:
            raise SchemaError(f"attribute {self.name!r}: width must be >= 0")
        if self.width == 0:
            object.__setattr__(self, "width", self.type.default_width)


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of :class:`Attribute`.

    >>> s = Schema.of(a=AttributeType.INT, b=AttributeType.STR)
    >>> s.names
    ('a', 'b')
    >>> s.tuple_size
    20
    """

    attributes: tuple[Attribute, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {names}")
        if not self.attributes:
            raise SchemaError("a schema must have at least one attribute")
        object.__setattr__(
            self, "_index", {a.name: i for i, a in enumerate(self.attributes)}
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, **attrs: AttributeType) -> "Schema":
        """Build a schema from keyword ``name=AttributeType`` pairs."""
        return cls(tuple(Attribute(n, t) for n, t in attrs.items()))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, AttributeType]], widths: dict[str, int] | None = None
    ) -> "Schema":
        """Build a schema from (name, type) pairs with optional widths."""
        widths = widths or {}
        return cls(tuple(Attribute(n, t, widths.get(n, 0)) for n, t in pairs))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def tuple_size(self) -> int:
        """Bytes occupied by one tuple of this schema."""
        return sum(a.width for a in self.attributes)

    def blocking_factor(self, block_size: int) -> int:
        """Tuples per disk block of ``block_size`` bytes (at least 1)."""
        if block_size <= 0:
            raise SchemaError(f"block size must be positive, got {block_size}")
        return max(1, block_size // self.tuple_size)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises ``SchemaError`` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"no attribute {name!r} in schema {self.names}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index_of(name)]

    # ------------------------------------------------------------------
    # Derivation for RA operators
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """Schema after projecting onto ``names`` (order preserved as given)."""
        if not names:
            raise SchemaError("projection needs at least one attribute")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attributes in projection {names}")
        return Schema(tuple(self.attribute(n) for n in names))

    def join(self, other: "Schema") -> "Schema":
        """Schema of the join output: this schema ++ other's attributes.

        Name clashes on the right side are disambiguated with a ``_r``
        suffix, mirroring how the ERAM prototype renamed attributes.
        """
        taken = set(self.names)
        right = []
        for a in other.attributes:
            name = a.name
            while name in taken:
                name = name + "_r"
            taken.add(name)
            right.append(Attribute(name, a.type, a.width))
        return Schema(self.attributes + tuple(right))

    def is_compatible(self, other: "Schema") -> bool:
        """True when set operations (union/diff/intersect) are legal."""
        return self.names == other.names and tuple(
            a.type for a in self.attributes
        ) == tuple(a.type for a in other.attributes)

    def require_compatible(self, other: "Schema", op: str) -> None:
        if not self.is_compatible(other):
            raise SchemaError(
                f"{op}: schemas are not attribute-compatible: "
                f"{self.names} vs {other.names}"
            )

    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Validate and coerce one row against this schema."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} != schema arity {self.arity}"
            )
        return tuple(
            attr.type.validate(value) for attr, value in zip(self.attributes, row)
        )

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """Validate a whole batch; returns what :meth:`validate_row` would.

        One type check per attribute (``set(map(type, column))``) instead
        of one ``validate`` call per value. A batch whose every row is a
        tuple of this arity, whose columns hold only their type's own
        Python type and whose FLOAT columns hold no NaN is already valid
        and is returned as given; anything else goes row by row through
        :meth:`validate_row`, so coercions and error messages stay its own.
        """
        rows = list(rows)
        if self._valid_as_given(rows):
            return rows
        return [self.validate_row(row) for row in rows]

    def _valid_as_given(self, rows: list[Sequence[Any]]) -> bool:
        if set(map(type, rows)) - {tuple} or set(map(len, rows)) - {self.arity}:
            return False
        for attr, column in zip(self.attributes, zip(*rows)):
            if set(map(type, column)) - _STORED_AS_GIVEN[attr.type]:
                return False
            if attr.type is AttributeType.FLOAT and any(map(math.isnan, column)):
                return False
        return True
