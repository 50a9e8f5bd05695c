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
from typing import Callable, Sequence

from repro.core.result import QueryResult
from repro.errors import CellRunError
from repro.timecontrol.strategies import TimeControlStrategy
from repro.workloads.paper import PaperSetup

StrategyFactory = Callable[[], TimeControlStrategy]


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


def _run_one(
    setup: PaperSetup,
    strategy_factory: StrategyFactory,
    seed: int,
    kwargs: dict,
) -> QueryResult:
    """One independent evaluation — a fresh session for a fresh seed.

    A failure is re-raised as :class:`CellRunError` naming the seed and the
    cell, so a crash deep inside one of 200 runs points straight at the
    reproducing configuration.
    """
    strategy = strategy_factory()
    try:
        return setup.database.estimate(
            setup.query,
            quota=setup.quota,
            strategy=strategy,
            seed=seed,
            **kwargs,
        )
    except Exception as exc:
        raise CellRunError(
            seed,
            f"run_cell failed at seed {seed} "
            f"(query {setup.query}, quota {setup.quota:g}s, "
            f"strategy {strategy.describe()}): "
            f"{type(exc).__name__}: {exc}",
        ) from exc


def run_cell(
    setup: PaperSetup,
    strategy_factory: StrategyFactory,
    runs: int,
    seed0: int = 1000,
    **estimate_kwargs,
) -> list[QueryResult]:
    """Run one cell: ``runs`` evaluations on seeds ``seed0``, ``seed0 + 1``, …

    ``estimate_kwargs`` are query options applied to every run.
    """
    kwargs = dict(estimate_kwargs)
    kwargs.setdefault("initial_selectivities", setup.initial_selectivities)
    seeds = range(seed0, seed0 + runs)
    return [_run_one(setup, strategy_factory, seed, kwargs) for seed in seeds]


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
