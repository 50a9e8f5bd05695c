"""Selection formulas.

The paper's selection operator takes a *selection formula* — in the
experiments "a selection formula containing only one integer comparison"
(Section 5.A) — and its cost formula charges per-tuple predicate checks whose
coefficient depends on the number of comparisons in the formula (Section 4:
coefficients "emphasize specific characteristics of a query such as ...
comparisons in selection formulas").

Predicates are small immutable ASTs: :class:`Comparison` leaves combined with
:class:`And` / :class:`Or` / :class:`Not`. A predicate is *compiled* against
a schema into a fast row -> bool callable, and exposes
:meth:`Predicate.comparison_count` as a cost-model feature.

:meth:`Predicate.compile_mask` is the vectorized counterpart used by the
kernel layer (:mod:`repro.kernels`): it binds the same formula to a
columns -> boolean-mask callable operating on whole stages at once. Both
compilations decide the same rows — the mask path only changes wall-clock
time, never the charged simulated cost (the ``SELECT_CHECK`` charge is per
input tuple either way).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.catalog.schema import Schema
from repro.errors import ExpressionError
from repro.storage.block import Row

ColumnMask = Callable[[Any], np.ndarray]
"""Vectorized predicate: a column provider (``.column(i)``, ``len()``) -> bools."""

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


_EXACT_IN_FLOAT = 2**53
"""Every integer of at most this magnitude is exactly a float64."""


def _compare(fn: Callable[[Any, Any], Any], left: Any, right: Any) -> np.ndarray:
    """``fn(left, right)`` elementwise, decided as Python decides it per row.

    NumPy compares an integer with a float in float64, which rounds an
    integer past 2**53; such a pair is compared as Python objects instead.
    """
    if _rounds(left, right) or _rounds(right, left):
        left, right = _as_objects(left), _as_objects(right)
    return np.asarray(fn(left, right), dtype=bool)


def _rounds(ints: Any, floats: Any) -> bool:
    """Would comparing ``ints`` with ``floats`` in float64 round an integer?"""
    if isinstance(floats, np.ndarray):
        if floats.dtype.kind != "f":
            return False
    elif not isinstance(floats, float):
        return False
    if isinstance(ints, np.ndarray):
        return ints.dtype.kind == "i" and bool(
            ((ints > _EXACT_IN_FLOAT) | (ints < -_EXACT_IN_FLOAT)).any()
        )
    return isinstance(ints, (int, np.integer)) and abs(int(ints)) > _EXACT_IN_FLOAT


def _as_objects(value: Any) -> Any:
    return value.astype(object) if isinstance(value, np.ndarray) else value


class Predicate:
    """Abstract base of all selection formulas."""

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        """Bind attribute names to positions; returns a row predicate."""
        raise NotImplementedError

    def compile_mask(self, schema: Schema) -> ColumnMask:
        """Bind to positions; returns a columns -> boolean-mask callable."""
        raise NotImplementedError

    def comparison_count(self) -> int:
        """Number of atomic comparisons (a cost-model feature)."""
        raise NotImplementedError

    def attributes(self) -> set[str]:
        """Attribute names referenced by the formula."""
        raise NotImplementedError

    def canonical_str(self) -> str:
        """Order-stable rendering: equal formulas modulo And/Or operand
        order render identically (feeds the expression plan-cache key)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.canonical_str()

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class Comparison(Predicate):
    """``attr <op> constant`` or ``attr <op> attr`` (when rhs is :class:`Attr`)."""

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ExpressionError(
                f"unknown comparison operator {self.op!r}; "
                f"choose from {sorted(_OPS)}"
            )

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        idx = schema.index_of(self.attr)
        fn = _OPS[self.op]
        if isinstance(self.value, Attr):
            other = schema.index_of(self.value.name)
            return lambda row: fn(row[idx], row[other])
        constant = self.value
        return lambda row: fn(row[idx], constant)

    def compile_mask(self, schema: Schema) -> ColumnMask:
        idx = schema.index_of(self.attr)
        fn = _OPS[self.op]
        if isinstance(self.value, Attr):
            other = schema.index_of(self.value.name)
            return lambda cols: _compare(fn, cols.column(idx), cols.column(other))
        constant = self.value
        return lambda cols: _compare(fn, cols.column(idx), constant)

    def comparison_count(self) -> int:
        return 1

    def attributes(self) -> set[str]:
        names = {self.attr}
        if isinstance(self.value, Attr):
            names.add(self.value.name)
        return names

    def canonical_str(self) -> str:
        if isinstance(self.value, Attr):
            return f"{self.attr}{self.op}@{self.value.name}"
        return f"{self.attr}{self.op}{self.value!r}"


@dataclass(frozen=True)
class Attr:
    """Marker wrapping an attribute name used on a comparison's right side."""

    name: str


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of sub-formulas."""

    parts: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExpressionError("And needs at least two sub-predicates")

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fns = [p.compile(schema) for p in self.parts]
        return lambda row: all(fn(row) for fn in fns)

    def compile_mask(self, schema: Schema) -> ColumnMask:
        fns = [p.compile_mask(schema) for p in self.parts]
        return lambda cols: np.logical_and.reduce([fn(cols) for fn in fns])

    def comparison_count(self) -> int:
        return sum(p.comparison_count() for p in self.parts)

    def attributes(self) -> set[str]:
        return set().union(*(p.attributes() for p in self.parts))

    def canonical_str(self) -> str:
        rendered = sorted(p.canonical_str() for p in self.parts)
        return "(" + " & ".join(rendered) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of sub-formulas."""

    parts: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExpressionError("Or needs at least two sub-predicates")

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fns = [p.compile(schema) for p in self.parts]
        return lambda row: any(fn(row) for fn in fns)

    def compile_mask(self, schema: Schema) -> ColumnMask:
        fns = [p.compile_mask(schema) for p in self.parts]
        return lambda cols: np.logical_or.reduce([fn(cols) for fn in fns])

    def comparison_count(self) -> int:
        return sum(p.comparison_count() for p in self.parts)

    def attributes(self) -> set[str]:
        return set().union(*(p.attributes() for p in self.parts))

    def canonical_str(self) -> str:
        rendered = sorted(p.canonical_str() for p in self.parts)
        return "(" + " | ".join(rendered) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a sub-formula."""

    part: Predicate

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        fn = self.part.compile(schema)
        return lambda row: not fn(row)

    def compile_mask(self, schema: Schema) -> ColumnMask:
        fn = self.part.compile_mask(schema)
        return lambda cols: ~fn(cols)

    def comparison_count(self) -> int:
        return self.part.comparison_count()

    def attributes(self) -> set[str]:
        return self.part.attributes()

    def canonical_str(self) -> str:
        return f"!{self.part.canonical_str()}"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Always-true formula (selects everything); zero comparisons."""

    def compile(self, schema: Schema) -> Callable[[Row], bool]:
        return lambda row: True

    def compile_mask(self, schema: Schema) -> ColumnMask:
        return lambda cols: np.ones(len(cols), dtype=bool)

    def comparison_count(self) -> int:
        return 0

    def attributes(self) -> set[str]:
        return set()

    def canonical_str(self) -> str:
        return "true"


def attr(name: str) -> Attr:
    """Reference an attribute on the right-hand side of a comparison."""
    return Attr(name)


def cmp(attribute: str, op: str, value: Any) -> Comparison:
    """Shorthand constructor: ``cmp("a", "<", 500)``."""
    return Comparison(attribute, op, value)
