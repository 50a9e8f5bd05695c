"""Sorted-run kernels — the vectorized heart of the staged binary operators.

Full-fulfillment stage ``s`` must combine the stage's new sorted run with
every run produced at stages ``1..s-1`` (Figures 4.4/4.6). The reference
path loops over the old runs and merges each pair tuple-at-a-time, so the
Python work per stage grows with the stage count. Here each operand side
keeps **one consolidated sorted run** (:class:`SortedRun`): the new run is
merged in once per stage, and all ``new x old`` pairs are answered by a
single ``np.searchsorted`` probe against the consolidated keys, with a
per-row *stage tag* recovering the per-old-run outputs the cost formulas
(and the trace) are defined over.

Everything here is uncharged by design: callers replay the reference
path's exact charge sequence (see
:meth:`repro.engine.nodes._StagedBinary.advance`), so charged simulated
time is bit-identical while wall-clock time stops scaling with stages.

Key comparisons go through lexicographic integer *codes*:
:func:`encode_columns` ranks every distinct key across all participating
column sets at once, so one ``searchsorted`` on an ``int64`` array replaces
tuple-at-a-time comparisons while preserving Python's tuple ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.storage.block import Row

# Mixed-radix code combination densifies before it could overflow int64.
_CODE_LIMIT = np.int64(1) << 60


def rows_array(rows: Sequence[Row]) -> np.ndarray:
    """Row tuples as a 1-D ``object`` array (C-speed gather/reorder)."""
    return np.fromiter(rows, dtype=object, count=len(rows))


def stable_lexsort(key_cols: Sequence[np.ndarray]) -> np.ndarray:
    """Indices sorting rows lexicographically by ``key_cols``, stably.

    Equivalent to ``sorted(rows, key=tuple_of_positions)``: successive
    stable argsorts from the least-significant key column, which also
    works for ``object``-dtype columns (Python comparisons).
    """
    if not key_cols:
        return np.arange(0)
    order = np.arange(len(key_cols[0]))
    for col in reversed(list(key_cols)):
        order = order[np.argsort(col[order], kind="stable")]
    return order


def _densify(codes_per_set: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Re-rank codes into ``0..k-1`` order-preservingly; returns cardinality."""
    concat = np.concatenate(codes_per_set) if codes_per_set else np.empty(0)
    uniques, inverse = np.unique(concat, return_inverse=True)
    out, start = [], 0
    for codes in codes_per_set:
        out.append(inverse[start : start + len(codes)].astype(np.int64))
        start += len(codes)
    return out, len(uniques)


def encode_columns(
    column_sets: Sequence[Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """Lexicographic ``int64`` key codes, consistent across column sets.

    ``column_sets`` holds one sequence of parallel key-column arrays per
    participant (e.g. new-left, new-right, consolidated-left,
    consolidated-right). The returned code arrays order exactly like the
    original key tuples: ``code_a < code_b`` iff ``key_a < key_b``, across
    *all* sets, so they can be merged, searched, and compared directly.
    Each key position must hold one attribute type in every set, as
    ``Join.schema`` and ``Schema.require_compatible`` (set operations)
    guarantee: INT past 2**53 mixed with FLOAT would round in float64.
    """
    n_positions = len(column_sets[0])
    codes = [np.zeros(len(s[0]) if s else 0, dtype=np.int64) for s in column_sets]
    cardinality = 1
    for position in range(n_positions):
        concat = np.concatenate(
            [np.asarray(s[position]) for s in column_sets]
        )
        uniques, inverse = np.unique(concat, return_inverse=True)
        radix = max(len(uniques), 1)
        if cardinality > 1 and cardinality * radix >= _CODE_LIMIT:
            codes, cardinality = _densify(codes)
        start = 0
        for i, s in enumerate(column_sets):
            n = len(s[position])
            codes[i] = codes[i] * radix + inverse[start : start + n].astype(
                np.int64
            )
            start += n
        cardinality *= radix
    return codes


def match_pairs(
    a_codes: np.ndarray, b_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with ``a_codes[i] == b_codes[j]``, enumerated a-major.

    ``b_codes`` must be sorted ascending. Pairs come out in the order the
    reference sorted-merge emits them: ascending ``i``, and ascending ``j``
    within each ``i`` — which, when ``a_codes`` is sorted too, is exactly
    (key ascending, left row, right row).
    """
    lo = np.searchsorted(b_codes, a_codes, side="left")
    hi = np.searchsorted(b_codes, a_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    l_idx = np.repeat(np.arange(len(a_codes)), counts)
    if total == 0:
        return l_idx, np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    group_starts = np.repeat(np.cumsum(counts) - counts, counts)
    r_idx = starts + (np.arange(total) - group_starts)
    return l_idx, r_idx


def first_occurrence(sorted_codes: np.ndarray) -> np.ndarray:
    """Positions of the first row of each distinct code (input sorted)."""
    n = len(sorted_codes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.empty(n, dtype=bool)
    mask[0] = True
    mask[1:] = sorted_codes[1:] != sorted_codes[:-1]
    return np.flatnonzero(mask)


@dataclass
class KeyedRows:
    """One sorted run ready for kernel merging: key codes + row objects."""

    codes: np.ndarray  # int64, ascending
    rows: np.ndarray  # object array of Row tuples, parallel to codes


class SortedRun:
    """One side's consolidated sorted run across all completed stages.

    Holds the union of every per-stage sorted run, globally sorted on the
    merge key, with a per-row *stage tag* and the append-order run lengths
    — enough to reconstruct any per-old-run merge output (and its charged
    cost features) without revisiting the runs individually.
    """

    __slots__ = ("key_cols", "rows", "stages", "lengths")

    def __init__(self) -> None:
        self.key_cols: list[np.ndarray] | None = None
        self.rows: np.ndarray = np.empty(0, dtype=object)
        self.stages: np.ndarray = np.empty(0, dtype=np.int64)
        self.lengths: list[tuple[int, int]] = []  # (stage, run length)

    def __len__(self) -> int:
        return len(self.rows)

    def snapshot(self) -> tuple:
        """Opaque rollback token (cheap: references, not copies).

        Safe because :meth:`merge_in` *replaces* ``key_cols``/``rows``/
        ``stages`` with fresh arrays rather than mutating them in place;
        only ``lengths`` is appended to, so it alone needs copying.
        """
        return (self.key_cols, self.rows, self.stages, list(self.lengths))

    def restore(self, token: tuple) -> None:
        """Roll back to a :meth:`snapshot` token."""
        self.key_cols, self.rows, self.stages, lengths = token
        self.lengths = list(lengths)

    def key_columns_or_empty(
        self, template: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Key columns, or empty arrays shaped like ``template`` pre-merge."""
        if self.key_cols is not None:
            return self.key_cols
        return [col[:0] for col in template]

    def merge_in(
        self,
        key_cols: Sequence[np.ndarray],
        rows: np.ndarray,
        stage: int,
    ) -> None:
        """Fold stage ``stage``'s sorted run into the consolidated run.

        Both the run and the new batch are key-sorted; a single stable
        argsort over joint codes merges them while preserving each side's
        internal (hence per-stage) order.
        """
        self.lengths.append((stage, len(rows)))
        tags = np.full(len(rows), stage, dtype=np.int64)
        if self.key_cols is None:
            self.key_cols = [np.asarray(c) for c in key_cols]
            self.rows = rows
            self.stages = tags
            return
        old_codes, new_codes = encode_columns([self.key_cols, list(key_cols)])
        order = np.argsort(
            np.concatenate([old_codes, new_codes]), kind="stable"
        )
        self.key_cols = [
            np.concatenate([old, new])[order]
            for old, new in zip(self.key_cols, key_cols)
        ]
        self.rows = np.concatenate([self.rows, rows])[order]
        self.stages = np.concatenate([self.stages, tags])[order]


def join_rows(
    left_rows: np.ndarray,
    right_rows: np.ndarray,
    l_idx: np.ndarray,
    r_idx: np.ndarray,
) -> list[Row]:
    """Materialize concatenated join tuples for the given index pairs."""
    return [
        left + right
        for left, right in zip(
            left_rows[l_idx].tolist(), right_rows[r_idx].tolist()
        )
    ]


def join_new_new(left: KeyedRows, right: KeyedRows) -> list[Row]:
    """The stage's new x new equi-join (reference: ``merge_join``)."""
    l_idx, r_idx = match_pairs(left.codes, right.codes)
    return join_rows(left.rows, right.rows, l_idx, r_idx)


def join_vs_run(
    new: KeyedRows,
    run: SortedRun,
    run_codes: np.ndarray,
    new_on_left: bool,
) -> list[list[Row]]:
    """New run joined against every old run, in one probe.

    Returns one output list per old run, in ``run.lengths`` (append)
    order, each identical — rows *and* row order — to the reference
    pairwise ``merge_join`` of the new run with that old run.
    """
    if new_on_left:
        l_idx, r_idx = match_pairs(new.codes, run_codes)
        tags = run.stages[r_idx]
    else:
        l_idx, r_idx = match_pairs(run_codes, new.codes)
        tags = run.stages[l_idx]
    order = np.argsort(tags, kind="stable")
    l_idx, r_idx, tags = l_idx[order], r_idx[order], tags[order]
    outputs: list[list[Row]] = []
    for stage, _length in run.lengths:
        lo = np.searchsorted(tags, stage, side="left")
        hi = np.searchsorted(tags, stage, side="right")
        if new_on_left:
            outputs.append(
                join_rows(new.rows, run.rows, l_idx[lo:hi], r_idx[lo:hi])
            )
        else:
            outputs.append(
                join_rows(run.rows, new.rows, l_idx[lo:hi], r_idx[lo:hi])
            )
    return outputs


def intersect_new_new(left: KeyedRows, right: KeyedRows) -> list[Row]:
    """The stage's new x new set intersection (reference: ``merge_intersect``)."""
    left_first = first_occurrence(left.codes)
    distinct_left = left.codes[left_first]
    distinct_right = right.codes[first_occurrence(right.codes)]
    if len(distinct_right) == 0 or len(distinct_left) == 0:
        return []
    pos = np.searchsorted(distinct_right, distinct_left)
    pos_clipped = np.minimum(pos, len(distinct_right) - 1)
    found = (pos < len(distinct_right)) & (
        distinct_right[pos_clipped] == distinct_left
    )
    return left.rows[left_first[found]].tolist()


def intersect_vs_run(
    new: KeyedRows, run: SortedRun, run_codes: np.ndarray
) -> list[list[Row]]:
    """New run intersected with every old run, in one probe.

    Returns one output list per old run in append order; each is the
    ascending distinct common values, matching the reference pairwise
    ``merge_intersect`` output as a value sequence (representative row
    tuples are value-identical by definition of whole-row intersection).
    """
    new_first = first_occurrence(new.codes)
    distinct = new.codes[new_first]
    l_idx, r_idx = match_pairs(distinct, run_codes)
    tags = run.stages[r_idx]
    width = max(len(distinct), 1)
    combined = np.unique(tags * width + l_idx)
    tag_of = combined // width
    left_of = combined % width
    outputs: list[list[Row]] = []
    for stage, _length in run.lengths:
        lo = np.searchsorted(tag_of, stage, side="left")
        hi = np.searchsorted(tag_of, stage, side="right")
        outputs.append(new.rows[new_first[left_of[lo:hi]]].tolist())
    return outputs
