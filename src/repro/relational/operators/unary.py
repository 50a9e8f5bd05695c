"""Unary operator primitives: selection and duplicate elimination.

Selection (Figure 4.3) is "exactly the same as the regular selection
operation evaluation in a relational DBMS": scan input tuples, check the
formula, write qualifying tuples out. Its cost formula — equation (4.1) —
is ``c1·n + C1·p + C2`` and we charge ``SELECT_CHECK`` per input tuple,
``PAGE_WRITE`` per output page and ``OP_INIT`` once. :func:`apply_select`
checks one row at a time and is the reference; :func:`select_batch` issues
the same charges but decides a whole column batch with one compiled mask —
the staged select and the exact evaluator both run on it.

Duplicate elimination is the third step of the Project algorithm
(Figure 4.7): "scan the temporary file and write distinct tuples with their
occupancy into the output relation". It expects *sorted* input and charges
``DEDUPE_TUPLE`` per scanned tuple plus output pages. It returns the group
occupancies, which Goodman's estimator consumes.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Callable, Sequence

from repro.storage.block import Row
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.kernels.columns import ColumnBatch
    from repro.relational.predicate import ColumnMask


def apply_select(
    rows: Sequence[Row],
    predicate: Callable[[Row], bool],
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """Filter ``rows`` by ``predicate``, charging equation (4.1)'s terms."""
    charger.charge(CostKind.OP_INIT, 1)
    if rows:
        charger.charge(CostKind.SELECT_CHECK, len(rows))
    out = [row for row in rows if predicate(row)]
    if out:
        charger.charge(CostKind.PAGE_WRITE, -(-len(out) // blocking_factor))
    return out


def select_batch(
    batch: "ColumnBatch",
    mask_fn: "ColumnMask",
    charger: CostCharger,
    blocking_factor: int,
) -> list[Row]:
    """:func:`apply_select` over ``batch.rows``, decided by one mask.

    Charges ``OP_INIT``, ``SELECT_CHECK`` and ``PAGE_WRITE`` exactly as
    :func:`apply_select` does and keeps the selected rows in input order.
    An empty batch is not handed to the mask.
    """
    rows = batch.rows
    charger.charge(CostKind.OP_INIT, 1)
    if not rows:
        return []
    charger.charge(CostKind.SELECT_CHECK, len(rows))
    out = list(compress(rows, mask_fn(batch).tolist()))
    if out:
        charger.charge(CostKind.PAGE_WRITE, -(-len(out) // blocking_factor))
    return out


def dedupe_sorted(
    rows: Sequence[Row],
    charger: CostCharger,
    blocking_factor: int,
) -> tuple[list[Row], list[int]]:
    """Collapse a *sorted* sequence into (distinct rows, occupancy counts)."""
    if rows:
        charger.charge(CostKind.DEDUPE_TUPLE, len(rows))
    distinct: list[Row] = []
    occupancy: list[int] = []
    for row in rows:
        if distinct and distinct[-1] == row:
            occupancy[-1] += 1
        else:
            distinct.append(row)
            occupancy.append(1)
    if distinct:
        charger.charge(CostKind.PAGE_WRITE, -(-len(distinct) // blocking_factor))
    return distinct, occupancy


def project_rows(rows: Sequence[Row], positions: Sequence[int]) -> list[Row]:
    """Project each row onto attribute ``positions`` (no charge; pure reshape)."""
    idx = tuple(positions)
    return [tuple(row[i] for i in idx) for row in rows]
