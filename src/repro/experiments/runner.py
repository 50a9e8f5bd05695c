"""Batch experiment runner.

Section 5's tables aggregate 200 independent runs per cell: "Every entry in
any table has been obtained from 200 independent experiments on RA
operators." :func:`run_cell` executes one cell (one strategy configuration ×
one workload × N seeds) and :func:`aggregate` reduces the runs to the
paper's columns:

* ``stages`` — mean stages completed within the quota;
* ``risk``   — percentage of runs in which a stage overspent the quota;
* ``ovsp``   — mean seconds overspent, *among overspending runs only*;
* ``utilization`` — mean percentage of the quota used by in-time stages;
* ``blocks`` — mean disk blocks evaluated within the quota;

plus a reproduction extra the paper reports elsewhere: the mean relative
error of the returned estimate against the exact count.

Every run executes in its own :class:`~repro.core.session.QuerySession`
(no mutable state shared between seeds), serially and in seed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.options import QueryOptions
from repro.core.result import QueryResult
from repro.errors import CellRunError
from repro.timecontrol.strategies import TimeControlStrategy
from repro.workloads.paper import PaperSetup


@dataclass(frozen=True)
class CellResult:
    """Aggregated measurements of one table cell."""

    label: str
    runs: int
    stages: float
    risk_pct: float
    ovsp_seconds: float
    utilization_pct: float
    blocks: float
    mean_relative_error: float | None

    def row(self) -> list[str]:
        err = (
            f"{self.mean_relative_error:.3f}"
            if self.mean_relative_error is not None
            else "-"
        )
        return [
            self.label,
            f"{self.stages:.2f}",
            f"{self.risk_pct:.0f}",
            f"{self.ovsp_seconds:.2f}",
            f"{self.utilization_pct:.0f}",
            f"{self.blocks:.1f}",
            err,
        ]


def run_cell(
    setup: PaperSetup,
    strategy: TimeControlStrategy,
    runs: int,
    seed0: int = 1000,
    **estimate_kwargs,
) -> list[QueryResult]:
    """Run one cell: ``runs`` evaluations on seeds ``seed0``, ``seed0 + 1``, …

    Every run gets one bundle: ``strategy`` and the query options in
    ``estimate_kwargs`` (``initial_selectivities`` defaults to the setup's).
    A failure is re-raised as :class:`CellRunError` naming the seed and the
    cell, so a crash deep inside one of 200 runs points straight at the
    reproducing configuration.
    """
    estimate_kwargs.setdefault("initial_selectivities", setup.initial_selectivities)
    options = QueryOptions(strategy=strategy).replace(**estimate_kwargs)
    results = []
    for seed in range(seed0, seed0 + runs):
        try:
            results.append(
                setup.database.estimate(
                    setup.query, quota=setup.quota, seed=seed, options=options
                )
            )
        except Exception as exc:
            raise CellRunError(
                seed,
                f"run_cell failed at seed {seed} "
                f"(query {setup.query}, quota {setup.quota:g}s, "
                f"strategy {strategy.describe()}): "
                f"{type(exc).__name__}: {exc}",
            ) from exc
    return results


def aggregate(
    label: str,
    results: Sequence[QueryResult],
    true_count: float | None = None,
) -> CellResult:
    """Reduce per-run results to the paper's table columns."""
    n = len(results)
    if n == 0:
        raise ValueError("cannot aggregate zero runs")
    overspenders = [r for r in results if r.overspent]
    ovsp = (
        sum(r.overspend_seconds for r in overspenders) / len(overspenders)
        if overspenders
        else 0.0
    )
    errors: list[float] = []
    if true_count is not None:
        for r in results:
            if r.estimate is not None:
                err = r.relative_error(true_count)
                if math.isfinite(err):
                    errors.append(err)
    return CellResult(
        label=label,
        runs=n,
        stages=sum(r.stages for r in results) / n,
        risk_pct=100.0 * len(overspenders) / n,
        ovsp_seconds=ovsp,
        utilization_pct=100.0 * sum(r.utilization for r in results) / n,
        blocks=sum(r.blocks for r in results) / n,
        mean_relative_error=(sum(errors) / len(errors)) if errors else None,
    )
