"""Columnar kernels — bulk evaluation for the staged engine's hot paths.

The paper charges *simulated* time through the cost formulas of Section 4;
how fast the host Python process grinds through a stage is invisible to the
controller. This package exploits that separation: it provides NumPy-backed
bulk primitives (vectorized predicate masks, lexicographic sorts,
``searchsorted``-based merge-joins and intersections over one consolidated
sorted run per operand side) that the staged nodes use to *compute* each
stage, while every charged cost — block reads, comparisons, sort and merge
steps — is issued in exactly the sequence and amounts of the row-at-a-time
operators in :mod:`repro.relational.operators`. Those operators stay in
the library — the exact evaluator runs on them (its selection on the
whole-batch ``select_batch`` the staged select uses) — and are the
reference every kernel is tested against: estimates, trace events, and
charged simulated times are bit-identical to a stage computed with them;
only wall-clock time differs.
"""

from __future__ import annotations

from repro.kernels.cache import (
    CompiledPredicate,
    KernelCacheInfo,
    compiled_predicate,
)
from repro.kernels.columns import ColumnBatch, column_array
from repro.kernels.runs import (
    KeyedRows,
    SortedRun,
    encode_columns,
    first_occurrence,
    match_pairs,
    stable_lexsort,
)

__all__ = [
    "ColumnBatch",
    "CompiledPredicate",
    "KernelCacheInfo",
    "KeyedRows",
    "SortedRun",
    "column_array",
    "compiled_predicate",
    "encode_columns",
    "first_occurrence",
    "match_pairs",
    "stable_lexsort",
]
