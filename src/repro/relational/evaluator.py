"""Exact relational-algebra evaluation — the ground-truth baseline.

Evaluates an expression over the *full* stored relations using the very same
charged primitives as the sampling engine (scan, external sort, sorted
merge), so exact evaluation is both the correctness oracle for the
estimators and the cost baseline a time quota is traded against. A base
relation is read in one pass (:meth:`HeapFile.scan_all`, charged like the
per-block :meth:`HeapFile.scan`), and a selection decides the whole input
with the predicate's compiled column mask (:func:`select_batch`, the
staged select's filter), charged like :func:`apply_select`.

The algorithms mirror Figures 4.3–4.7 of the paper: every binary operator
writes its inputs to temporary files, sorts them, and merges; projection
sorts and scans for duplicates. Unlike the estimator engine, the exact
evaluator executes Union and Difference directly (the estimator replaces
them with Intersect via inclusion–exclusion).
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.errors import ExpressionError
from repro.relational.expression import (
    Difference,
    Expression,
    Intersect,
    Join,
    Project,
    RelationRef,
    Select,
    Union,
)
from repro.relational.operators import (
    dedupe_sorted,
    external_sort,
    key_for_positions,
    merge_difference,
    merge_intersect,
    merge_join,
    merge_union,
    project_rows,
    select_batch,
    whole_row_key,
)
from repro.storage.block import Row
from repro.storage.heapfile import DEFAULT_BLOCK_SIZE
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind, MachineProfile


class ExactEvaluator:
    """Evaluates RA expressions exactly, charging the supplied charger."""

    def __init__(
        self,
        catalog: Catalog,
        charger: CostCharger,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.catalog = catalog
        self.charger = charger
        self.block_size = block_size

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def rows(self, expr: Expression) -> list[Row]:
        """All output tuples of ``expr`` (set semantics for set operators)."""
        expr.schema(self.catalog)  # validate before doing any charged work
        return self._eval(expr)

    def count(self, expr: Expression) -> int:
        """``COUNT(expr)`` — the quantity the paper's estimators target."""
        return len(self.rows(expr))

    # ------------------------------------------------------------------
    # Recursive evaluation
    # ------------------------------------------------------------------
    def _bf(self, schema: Schema) -> int:
        return schema.blocking_factor(self.block_size)

    def _eval(self, expr: Expression) -> list[Row]:
        if isinstance(expr, RelationRef):
            return self.catalog.get(expr.name).scan_all(self.charger)
        if isinstance(expr, Select):
            rows = self._eval(expr.child)
            schema = expr.schema(self.catalog)
            # Shared compilation cache: repeated evaluations of the same
            # formula (oracle checks inside experiment batteries) bind once.
            from repro.kernels.cache import compiled_predicate
            from repro.kernels.columns import ColumnBatch

            mask_fn = compiled_predicate(expr.predicate, schema).mask_fn
            return select_batch(
                ColumnBatch(rows, schema), mask_fn, self.charger, self._bf(schema)
            )
        if isinstance(expr, Project):
            return self._eval_project(expr)
        if isinstance(expr, Join):
            return self._eval_join(expr)
        if isinstance(expr, (Intersect, Union, Difference)):
            return self._eval_setop(expr)
        raise ExpressionError(f"unknown expression node {type(expr).__name__}")

    def _spool_inputs(self, *row_lists: list[Row]) -> None:
        """Charge step (1) of the binary algorithms: write inputs to temp files."""
        total = sum(len(rows) for rows in row_lists)
        if total:
            self.charger.charge(CostKind.TEMP_WRITE, total)

    def _eval_project(self, expr: Project) -> list[Row]:
        child_rows = self._eval(expr.child)
        child_schema = expr.child.schema(self.catalog)
        positions = [child_schema.index_of(a) for a in expr.attrs]
        projected = project_rows(child_rows, positions)
        self._spool_inputs(projected)
        ordered = external_sort(projected, whole_row_key, self.charger)
        schema = expr.schema(self.catalog)
        distinct, _occupancy = dedupe_sorted(ordered, self.charger, self._bf(schema))
        return distinct

    def _eval_join(self, expr: Join) -> list[Row]:
        left_rows = self._eval(expr.left)
        right_rows = self._eval(expr.right)
        left_schema = expr.left.schema(self.catalog)
        right_schema = expr.right.schema(self.catalog)
        left_key = [left_schema.index_of(a) for a, _ in expr.on]
        right_key = [right_schema.index_of(b) for _, b in expr.on]
        self._spool_inputs(left_rows, right_rows)
        left_sorted = external_sort(
            left_rows, key_for_positions(left_key), self.charger
        )
        right_sorted = external_sort(
            right_rows, key_for_positions(right_key), self.charger
        )
        schema = expr.schema(self.catalog)
        return merge_join(
            left_sorted,
            right_sorted,
            left_key,
            right_key,
            self.charger,
            self._bf(schema),
        )

    def _eval_setop(self, expr: Intersect | Union | Difference) -> list[Row]:
        left_rows = self._eval(expr.left)
        right_rows = self._eval(expr.right)
        self._spool_inputs(left_rows, right_rows)
        left_sorted = external_sort(left_rows, whole_row_key, self.charger)
        right_sorted = external_sort(right_rows, whole_row_key, self.charger)
        bf = self._bf(expr.schema(self.catalog))
        if isinstance(expr, Intersect):
            return merge_intersect(left_sorted, right_sorted, self.charger, bf)
        if isinstance(expr, Union):
            return merge_union(left_sorted, right_sorted, self.charger, bf)
        return merge_difference(left_sorted, right_sorted, self.charger, bf)


def count_exact(expr: Expression, catalog: Catalog) -> int:
    """Uncharged exact COUNT — the free ground-truth oracle for tests.

    Runs the full evaluator against a zero-cost machine profile, so no
    simulated time elapses anywhere.
    """
    free = CostCharger(MachineProfile.uniform(0.0))
    return ExactEvaluator(catalog, free).count(expr)


def rows_exact(expr: Expression, catalog: Catalog) -> list[Row]:
    """Uncharged exact output rows (tests and ground-truth comparisons)."""
    free = CostCharger(MachineProfile.uniform(0.0))
    return ExactEvaluator(catalog, free).rows(expr)
