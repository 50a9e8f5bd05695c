"""Row-at-a-time stage oracle — the reference invariant 6 compares against.

The engine computes each stage with the columnar kernels
(:meth:`StagedSelect._filter`, :meth:`_StagedBinary._stage`). These
subclasses compute the same stage the way the paper describes it — one
``apply_select`` pass, one ``external_sort`` per temp file, one pairwise
``merge_join`` / ``merge_intersect`` against every old run — using only the
row-at-a-time operators in :mod:`repro.relational.operators`. They override
the stage/filter method, plus the snapshot of the per-stage runs only they
keep, so ``advance``, prediction and selectivity tracking are the engine's
own.

:func:`rowwise_stages` substitutes them for the node classes
:mod:`repro.engine.physical` instantiates; plans built inside the ``with``
block run on the oracle, plans built outside run on the engine, and the
identity tests demand bit-equal rows, estimates, charges and traces.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.engine import physical
from repro.engine.nodes import StagedIntersect, StagedJoin, StagedSelect, _nlogn
from repro.relational.operators import (
    apply_select,
    external_sort,
    key_for_positions,
    merge_intersect,
    merge_join,
)


class RowwiseSelect(StagedSelect):
    def __init__(self, child, predicate, **kwargs) -> None:
        super().__init__(child, predicate, **kwargs)
        self._row_fn = predicate.compile(child.schema)

    def _filter(self, batch):
        return apply_select(batch.rows, self._row_fn, self.charger, self._bf())


class _RowwiseStage:
    """Pairwise merges against every old run (Figures 4.4–4.6).

    The oracle keeps its own per-stage sorted runs ``F_{j,i}`` — the engine
    holds only the consolidated ones — and rolls them back with the node.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._old_left = []
        self._old_right = []

    def _stage(self, stage, new_left, new_right):
        self._spool_writes(new_left, new_right)
        new_left, new_right = new_left.rows, new_right.rows
        total_in = len(new_left) + len(new_right)

        # Step (2): sort the temporary files.
        left_pos, right_pos = self._key_positions()
        with self.charger.measure() as meter:
            left_run = external_sort(
                new_left, key_for_positions(left_pos), self.charger
            )
            right_run = external_sort(
                new_right, key_for_positions(right_pos), self.charger
            )
        self.cost_model.observe(
            self.sort_step,
            [_nlogn(len(new_left)) + _nlogn(len(new_right)), total_in, 1.0],
            meter.elapsed,
        )

        # Step (3): merge — new×new always; cross-stage merges only under
        # full fulfillment (Figure 4.5).
        out = []
        reads = 0
        merges = 0
        with self.charger.measure() as meter:
            out.extend(self._merge(left_run, right_run))
            reads += total_in
            merges += 1
            if self.full_fulfillment:
                for old_right in self._old_right:
                    out.extend(self._merge(left_run, old_right))
                    reads += len(left_run) + len(old_right)
                    merges += 1
                for old_left in self._old_left:
                    out.extend(self._merge(old_left, right_run))
                    reads += len(old_left) + len(right_run)
                    merges += 1
        self.cost_model.observe(
            self.merge_step, [reads, len(out), merges], meter.elapsed
        )
        if self.full_fulfillment:
            self._old_left.append(left_run)
            self._old_right.append(right_run)
        return out

    def snapshot(self):
        token = super().snapshot()
        token["old_runs"] = (len(self._old_left), len(self._old_right))
        return token

    def restore(self, token):
        super().restore(token)
        left, right = token["old_runs"]
        del self._old_left[left:]
        del self._old_right[right:]


class RowwiseJoin(_RowwiseStage, StagedJoin):
    def _merge(self, left_run, right_run):
        return merge_join(
            left_run,
            right_run,
            self._left_key,
            self._right_key,
            self.charger,
            self._bf(),
        )


class RowwiseIntersect(_RowwiseStage, StagedIntersect):
    def _merge(self, left_run, right_run):
        return merge_intersect(left_run, right_run, self.charger, self._bf())


ORACLE = {
    "StagedSelect": RowwiseSelect,
    "StagedJoin": RowwiseJoin,
    "StagedIntersect": RowwiseIntersect,
}


@contextmanager
def rowwise_stages(active: bool = True):
    """Plans built inside this block compute their stages on the oracle.

    ``active=False`` leaves the engine's classes in place, so a test
    parametrized over both can use one ``with`` statement.
    """
    engine = {name: getattr(physical, name) for name in ORACLE}
    if active:
        for name, cls in ORACLE.items():
            setattr(physical, name, cls)
    try:
        yield
    finally:
        for name, cls in engine.items():
            setattr(physical, name, cls)
