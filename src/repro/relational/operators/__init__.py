"""Charged operator primitives shared by the exact and staged engines."""

from repro.relational.operators.merge import (
    charge_merge,
    merge_difference,
    merge_intersect,
    merge_join,
    merge_union,
)
from repro.relational.operators.sort import (
    charge_external_sort,
    external_sort,
    key_for_positions,
    whole_row_key,
)
from repro.relational.operators.unary import (
    apply_select,
    dedupe_sorted,
    project_rows,
    select_batch,
)

__all__ = [
    "apply_select",
    "charge_external_sort",
    "charge_merge",
    "dedupe_sorted",
    "external_sort",
    "key_for_positions",
    "merge_difference",
    "merge_intersect",
    "merge_join",
    "merge_union",
    "project_rows",
    "select_batch",
    "whole_row_key",
]
