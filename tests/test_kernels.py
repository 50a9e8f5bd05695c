"""Unit tests of the columnar kernel layer (:mod:`repro.kernels`).

Each kernel is checked against the obvious row-at-a-time computation it
replaces — the reference merge operators, ``sorted`` with tuple keys, or a
hand-rolled double loop. The engine-level bit-identity guarantees are
covered separately by the property and stress suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.schema import Attribute, Schema
from repro.catalog.types import AttributeType
from repro.kernels.cache import compiled_predicate
from repro.kernels.columns import ColumnBatch, column_array
from repro.kernels.runs import (
    KeyedRows,
    SortedRun,
    encode_columns,
    first_occurrence,
    intersect_new_new,
    intersect_vs_run,
    join_new_new,
    join_vs_run,
    match_pairs,
    rows_array,
    stable_lexsort,
)
from repro.relational.operators import merge_intersect, merge_join
from repro.relational.predicate import And, Not, Or, TruePredicate, attr, cmp
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile

SCHEMA = Schema(
    (
        Attribute("a", AttributeType.INT),
        Attribute("b", AttributeType.FLOAT),
        Attribute("c", AttributeType.STR),
    )
)


def free_charger() -> CostCharger:
    return CostCharger(MachineProfile.uniform(0.0))


# ----------------------------------------------------------------------
# Column decoding
# ----------------------------------------------------------------------
def test_column_array_dtypes():
    assert column_array([1, 2, 3], AttributeType.INT).dtype == np.int64
    assert column_array([1.5, 2.5], AttributeType.FLOAT).dtype == np.float64
    assert column_array(["x", "yy"], AttributeType.STR).dtype.kind == "U"


def test_column_array_empty_is_typed():
    assert column_array((), AttributeType.INT).dtype == np.int64
    assert column_array((), AttributeType.FLOAT).dtype == np.float64
    assert column_array((), AttributeType.STR).dtype.kind == "U"


def test_column_array_huge_int_falls_back_to_object():
    huge = 1 << 80
    col = column_array([1, huge], AttributeType.INT)
    assert col.dtype == object
    assert col[1] == huge


def test_column_batch_lazy_and_cached():
    rows = [(1, 0.5, "x"), (2, 1.5, "y"), (3, 2.5, "z")]
    batch = ColumnBatch(rows, SCHEMA)
    assert len(batch) == 3
    first = batch.column(0)
    assert first is batch.column(0)  # cached
    got = batch.key_columns([2, 0])
    assert got[0].tolist() == ["x", "y", "z"]
    assert got[1] is first


# ----------------------------------------------------------------------
# Sorting and key codes
# ----------------------------------------------------------------------
def test_stable_lexsort_matches_sorted_with_ties():
    rng = np.random.default_rng(0)
    rows = [
        (int(rng.integers(0, 4)), int(rng.integers(0, 3)), i) for i in range(200)
    ]
    cols = [
        np.array([r[0] for r in rows]),
        np.array([r[1] for r in rows]),
    ]
    order = stable_lexsort(cols)
    got = [rows[i] for i in order]
    # Stability: equal (a, b) keys keep original appearance order (the
    # trailing i is the original index, untouched by the key).
    assert got == sorted(rows, key=lambda r: (r[0], r[1], r[2]))


def test_encode_columns_orders_like_tuples_across_sets():
    set_a = [np.array([3, 1, 2]), np.array(["x", "z", "x"])]
    set_b = [np.array([2, 1]), np.array(["y", "z"])]
    codes = encode_columns([set_a, set_b])
    tuples = [(3, "x"), (1, "z"), (2, "x"), (2, "y"), (1, "z")]
    flat = np.concatenate(codes).tolist()
    for i in range(len(tuples)):
        for j in range(len(tuples)):
            assert (flat[i] < flat[j]) == (tuples[i] < tuples[j])
            assert (flat[i] == flat[j]) == (tuples[i] == tuples[j])


def test_encode_columns_densifies_instead_of_overflowing():
    # Five wide-cardinality columns would overflow a naive 64-bit radix
    # product; densification keeps codes exact.
    rng = np.random.default_rng(1)
    cols = [rng.integers(0, 1 << 16, size=64) for _ in range(5)]
    codes = encode_columns([[np.asarray(c) for c in cols]])[0]
    tuples = list(zip(*(c.tolist() for c in cols)))
    order_codes = np.argsort(codes, kind="stable").tolist()
    order_tuples = sorted(range(len(tuples)), key=lambda i: (tuples[i], i))
    assert order_codes == order_tuples


def test_match_pairs_is_a_major_and_complete():
    a = np.array([1, 2, 2, 5])
    b = np.array([2, 2, 3, 5, 5])
    l_idx, r_idx = match_pairs(a, b)
    pairs = list(zip(l_idx.tolist(), r_idx.tolist()))
    expected = [
        (i, j) for i in range(len(a)) for j in range(len(b)) if a[i] == b[j]
    ]
    assert pairs == expected


def test_match_pairs_empty_sides():
    empty = np.empty(0, dtype=np.int64)
    l_idx, r_idx = match_pairs(empty, np.array([1, 2]))
    assert len(l_idx) == 0 and len(r_idx) == 0
    l_idx, r_idx = match_pairs(np.array([1, 2]), empty)
    assert len(l_idx) == 0 and len(r_idx) == 0


def test_first_occurrence():
    assert first_occurrence(np.array([1, 1, 2, 4, 4, 4])).tolist() == [0, 2, 3]
    assert first_occurrence(np.empty(0, dtype=np.int64)).tolist() == []


# ----------------------------------------------------------------------
# SortedRun + merge kernels vs the reference operators
# ----------------------------------------------------------------------
def _keyed(rows, positions):
    cols = [np.array([r[p] for r in rows]) for p in positions]
    order = stable_lexsort(cols)
    ordered = [rows[i] for i in order]
    cols = [c[order] for c in cols]
    (codes,) = encode_columns([cols])
    return ordered, cols, KeyedRows(codes, rows_array(ordered))


def test_join_kernels_match_reference_merge_join():
    rng = np.random.default_rng(2)
    key_l, key_r = [0], [1]
    run_stages = [
        [(int(rng.integers(0, 6)), i) for i in range(n)] for n in (7, 0, 9, 5)
    ]
    new_right = [(i, int(rng.integers(0, 6))) for i in range(8)]
    run = SortedRun()
    for stage, rows in enumerate(run_stages, start=1):
        ordered, cols, _ = _keyed(rows, key_l)
        run.merge_in(cols, rows_array(ordered), stage)
    ordered_r, cols_r, keyed_r = _keyed(new_right, key_r)
    (run_codes, new_codes) = encode_columns(
        [run.key_columns_or_empty(cols_r), cols_r]
    )
    keyed_r = KeyedRows(new_codes, rows_array(ordered_r))
    outputs = join_vs_run(keyed_r, run, run_codes, new_on_left=False)
    for rows, got in zip(run_stages, outputs):
        ordered_l, _, _ = _keyed(rows, key_l)
        expected = merge_join(
            ordered_l, ordered_r, key_l, key_r, free_charger(), 5
        )
        assert got == expected


def test_join_new_new_matches_reference():
    rng = np.random.default_rng(3)
    left = [(int(rng.integers(0, 5)), i) for i in range(20)]
    right = [(i, int(rng.integers(0, 5))) for i in range(15)]
    ordered_l, cols_l, _ = _keyed(left, [0])
    ordered_r, cols_r, _ = _keyed(right, [1])
    codes_l, codes_r = encode_columns([cols_l, cols_r])
    got = join_new_new(
        KeyedRows(codes_l, rows_array(ordered_l)),
        KeyedRows(codes_r, rows_array(ordered_r)),
    )
    expected = merge_join(ordered_l, ordered_r, [0], [1], free_charger(), 5)
    assert got == expected


def test_intersect_kernels_match_reference_merge_intersect():
    rng = np.random.default_rng(4)
    positions = [0, 1]
    run_stages = [
        [(int(rng.integers(0, 4)), int(rng.integers(0, 3))) for _ in range(n)]
        for n in (6, 10, 0, 4)
    ]
    new = [(int(rng.integers(0, 4)), int(rng.integers(0, 3))) for _ in range(9)]
    run = SortedRun()
    for stage, rows in enumerate(run_stages, start=1):
        ordered, cols, _ = _keyed(rows, positions)
        run.merge_in(cols, rows_array(ordered), stage)
    ordered_n, cols_n, _ = _keyed(new, positions)
    run_codes, new_codes = encode_columns(
        [run.key_columns_or_empty(cols_n), cols_n]
    )
    keyed_n = KeyedRows(new_codes, rows_array(ordered_n))
    outputs = intersect_vs_run(keyed_n, run, run_codes)
    for rows, got in zip(run_stages, outputs):
        ordered_old, _, _ = _keyed(rows, positions)
        expected = merge_intersect(ordered_n, ordered_old, free_charger(), 5)
        assert got == expected
    # new x new direction too
    other = [(int(rng.integers(0, 4)), int(rng.integers(0, 3))) for _ in range(7)]
    ordered_o, cols_o, _ = _keyed(other, positions)
    codes_n2, codes_o = encode_columns([cols_n, cols_o])
    got = intersect_new_new(
        KeyedRows(codes_n2, rows_array(ordered_n)),
        KeyedRows(codes_o, rows_array(ordered_o)),
    )
    assert got == merge_intersect(ordered_n, ordered_o, free_charger(), 5)


def test_sorted_run_stays_globally_sorted():
    rng = np.random.default_rng(5)
    run = SortedRun()
    for stage in range(1, 5):
        rows = [(int(rng.integers(0, 10)),) for _ in range(6)]
        ordered, cols, _ = _keyed(rows, [0])
        run.merge_in(cols, rows_array(ordered), stage)
    keys = run.key_cols[0].tolist()
    assert keys == sorted(keys)
    assert len(run) == 24
    assert [(s, n) for s, n in run.lengths] == [(1, 6), (2, 6), (3, 6), (4, 6)]
    # Within equal keys, earlier stages come first (stable merge).
    for value in set(keys):
        tags = run.stages[run.key_cols[0] == value].tolist()
        assert tags == sorted(tags)


# ----------------------------------------------------------------------
# Predicate masks and compilation cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "predicate",
    [
        cmp("a", "<", 2),
        cmp("c", "==", "x"),
        cmp("b", ">=", attr("a")),
        And((cmp("a", ">", 0), cmp("b", "<", 2.0))),
        Or((cmp("a", "==", 1), Not(cmp("c", "!=", "y")))),
        TruePredicate(),
    ],
)
def test_mask_agrees_with_row_function(predicate):
    rows = [(i % 4, float(i % 3), "xyz"[i % 3]) for i in range(24)]
    compiled = compiled_predicate(predicate, SCHEMA)
    mask = compiled.mask_fn(ColumnBatch(rows, SCHEMA))
    assert mask.dtype == bool
    row_fn = predicate.compile(SCHEMA)
    assert mask.tolist() == [row_fn(r) for r in rows]


def test_compiled_predicate_is_cached_per_predicate_and_schema():
    a = compiled_predicate(cmp("a", "<", 7), SCHEMA)
    b = compiled_predicate(cmp("a", "<", 7), SCHEMA)
    assert a is b
    c = compiled_predicate(cmp("a", "<", 8), SCHEMA)
    assert c is not a


def test_compiled_predicate_unhashable_constant_falls_back():
    sneaky = cmp("a", "==", [1, 2])  # list constant: unhashable
    compiled = compiled_predicate(sneaky, SCHEMA)
    assert compiled is not compiled_predicate(sneaky, SCHEMA)  # not cached
    assert sneaky.compile(SCHEMA)((1, 0.0, "x")) is False
