"""Column decoding — Python row tuples to typed NumPy arrays.

The storage layer hands the engine lists of Python tuples (the paper's
fixed-size records). The kernels work column-wise: each attribute becomes
one contiguous array whose dtype follows the attribute type (``int64`` for
INT, ``float64`` for FLOAT, unicode for STR). Integers too wide for
``int64``, and strings ending in NUL (which a unicode array would drop),
fall back to ``object`` arrays, which keep exact Python comparison
semantics at reduced speed — correctness never depends on the fast dtype
being available.

:class:`ColumnBatch` is what a staged node hands its parent for one
stage: columns materialize on first access and are cached, so a parent
that only needs the join-key columns never pays for the rest.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Sequence

import numpy as np

from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.storage.block import Row

_ENDS_IN_NUL = methodcaller("endswith", "\x00")


def column_array(values: Sequence, attr_type: AttributeType) -> np.ndarray:
    """One attribute's values as a typed array (see module docstring)."""
    if not len(values):
        if attr_type is AttributeType.INT:
            return np.empty(0, dtype=np.int64)
        if attr_type is AttributeType.FLOAT:
            return np.empty(0, dtype=np.float64)
        return np.empty(0, dtype="<U1")
    if attr_type is AttributeType.INT:
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            return np.asarray(values, dtype=object)
    if attr_type is AttributeType.FLOAT:
        return np.asarray(values, dtype=np.float64)
    if any(map(_ENDS_IN_NUL, values)):
        return np.asarray(values, dtype=object)  # '<U…' drops trailing NULs
    return np.asarray(values)  # STR -> '<U…', code-point order == Python's


class ColumnBatch:
    """Lazy columnar view over one stage's row list.

    Columns are decoded on first access and cached; ``rows`` stays the
    authoritative representation (the Python tuples every estimate, charge
    and trace is computed from).
    """

    __slots__ = ("rows", "schema", "_cols")

    def __init__(self, rows: Sequence[Row], schema: Schema) -> None:
        self.rows = rows
        self.schema = schema
        self._cols: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, position: int) -> np.ndarray:
        """The array for attribute ``position`` (decoded once, cached)."""
        col = self._cols.get(position)
        if col is None:
            attr = self.schema.attributes[position]
            col = column_array([r[position] for r in self.rows], attr.type)
            self._cols[position] = col
        return col

    def key_columns(self, positions: Sequence[int]) -> list[np.ndarray]:
        """The arrays for the given attribute positions, in order."""
        return [self.column(p) for p in positions]
