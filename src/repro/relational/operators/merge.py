"""Sorted-merge primitives: intersect, join, union, difference.

These implement the third step of the paper's operator algorithms
(Figures 4.4 and 4.6): "perform the intersection/join operations between the
sorted files". The charged terms follow equation (4.4)::

    C4 · (n1 + n2)      — reading and comparing tuples   (MERGE_TUPLE)
    C3 · p              — writing the output pages        (PAGE_WRITE)
    C4'                 — per-merge constant              (MERGE_INIT)

plus ``OUTPUT_TUPLE`` per materialised result tuple, which the paper folds
into its constants but matters for the join's 70 000-output-tuple workload.

Inputs must already be sorted on the relevant key; callers are responsible
for that (see :mod:`repro.relational.operators.sort`). Union and Difference
merges exist for the *exact* evaluator only — the estimator never executes
them, because the inclusion–exclusion rewrite replaces them with Intersect
(Section 4.2).
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.block import Row
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind


def charge_merge(
    charger: CostCharger,
    n_left: int,
    n_right: int,
    outputs: list[Row],
    blocking_factor: int,
) -> None:
    """Charge equation (4.4)'s terms for one pairwise sorted merge.

    Public so the vectorized kernels can replay the exact per-merge charge
    sequence (one call per new x old run pair, in run order) after
    computing all the pairs' outputs in bulk.
    """
    charger.charge(CostKind.MERGE_INIT, 1)
    if n_left + n_right:
        charger.charge(CostKind.MERGE_TUPLE, n_left + n_right)
    if outputs:
        charger.charge(CostKind.OUTPUT_TUPLE, len(outputs))
        charger.charge(CostKind.PAGE_WRITE, -(-len(outputs) // blocking_factor))


def merge_intersect(
    left: list[Row],
    right: list[Row],
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """Set intersection of two whole-tuple-sorted files."""
    out: list[Row] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            out.append(left[i])
            value = left[i]
            while i < len(left) and left[i] == value:
                i += 1
            while j < len(right) and right[j] == value:
                j += 1
        elif left[i] < right[j]:
            i += 1
        else:
            j += 1
    charge_merge(charger, len(left), len(right), out, blocking_factor)
    return out


def merge_union(
    left: list[Row],
    right: list[Row],
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """Set union of two whole-tuple-sorted files (duplicates eliminated)."""
    out: list[Row] = []
    i = j = 0
    while i < len(left) or j < len(right):
        if j >= len(right) or (i < len(left) and left[i] < right[j]):
            value = left[i]
        elif i >= len(left) or right[j] < left[i]:
            value = right[j]
        else:
            value = left[i]
        out.append(value)
        while i < len(left) and left[i] == value:
            i += 1
        while j < len(right) and right[j] == value:
            j += 1
    charge_merge(charger, len(left), len(right), out, blocking_factor)
    return out


def merge_difference(
    left: list[Row],
    right: list[Row],
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """Set difference (left − right) of two whole-tuple-sorted files."""
    out: list[Row] = []
    i = j = 0
    while i < len(left):
        while j < len(right) and right[j] < left[i]:
            j += 1
        if j < len(right) and right[j] == left[i]:
            value = left[i]
            while i < len(left) and left[i] == value:
                i += 1
        else:
            value = left[i]
            out.append(value)
            while i < len(left) and left[i] == value:
                i += 1
    charge_merge(charger, len(left), len(right), out, blocking_factor)
    return out


def merge_join(
    left: list[Row],
    right: list[Row],
    left_key: Sequence[int],
    right_key: Sequence[int],
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """Equi-join of files sorted on their respective key positions.

    Produces the concatenation ``left_tuple ++ right_tuple`` for every pair
    with equal keys (the cross product within each matching key group).
    """
    lk = tuple(left_key)
    rk = tuple(right_key)
    out: list[Row] = []
    i = j = 0
    while i < len(left) and j < len(right):
        lkey = tuple(left[i][p] for p in lk)
        rkey = tuple(right[j][p] for p in rk)
        if lkey < rkey:
            i += 1
        elif rkey < lkey:
            j += 1
        else:
            # Gather both equal-key groups, emit their cross product.
            i_end = i
            while i_end < len(left) and tuple(left[i_end][p] for p in lk) == lkey:
                i_end += 1
            j_end = j
            while j_end < len(right) and tuple(right[j_end][p] for p in rk) == rkey:
                j_end += 1
            for li in range(i, i_end):
                for rj in range(j, j_end):
                    out.append(left[li] + right[rj])
            i, j = i_end, j_end
    charge_merge(charger, len(left), len(right), out, blocking_factor)
    return out
