"""Attribute types for the relational substrate.

The paper's ERAM prototype stores fixed-size tuples (200 bytes in the
experiments) in 1 KB disk blocks. We model attribute types only as far as the
cost model needs them: each type knows its storage width in bytes (so tuple
size, and hence the blocking factor, is derivable from a schema) and how to
validate / coerce Python values.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from repro.errors import SchemaError


class AttributeType(enum.Enum):
    """Storage type of a relation attribute.

    Widths follow the conventions of early-80s record layouts: 4-byte
    integers, 8-byte floats, and fixed-width padded strings (width supplied
    per attribute; see :class:`repro.catalog.schema.Attribute`).
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def default_width(self) -> int:
        """Storage width in bytes used when the attribute gives none."""
        if self is AttributeType.INT:
            return 4
        if self is AttributeType.FLOAT:
            return 8
        return 16  # STR

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced to this type, or raise ``SchemaError``.

        Booleans are rejected as INTs (a common silent-bug source), and
        numeric strings are *not* auto-parsed: the loader should be explicit.
        A FLOAT may be ±inf but not NaN, which has no place in the sort order
        that histograms and merges rely on.
        """
        if self is AttributeType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return value
        if self is AttributeType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r}")
            value = float(value)
            if math.isnan(value):
                raise SchemaError("expected float, got nan")
            return value
        if not isinstance(value, str):
            raise SchemaError(f"expected str, got {value!r}")
        return value

    @classmethod
    def infer(cls, value: Any) -> "AttributeType":
        """Infer the attribute type of a Python value."""
        if isinstance(value, bool):
            raise SchemaError("bool values are not a supported attribute type")
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, float):
            return cls.FLOAT
        if isinstance(value, str):
            return cls.STR
        raise SchemaError(f"unsupported attribute value {value!r}")
