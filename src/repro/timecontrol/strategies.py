"""Time-control strategies (Section 3.3).

A strategy answers one question per stage: *how large a sample fraction
should stage i take, given the time left?* The paper compares three:

* :class:`OneAtATimeInterval` — the prototype's choice. For each operator
  individually, inflate the estimated selectivity to
  ``sel⁺ = sel^{i−1} + d_β·sqrt(Var(sel_i))`` (equation 3.3), so that
  ``P(sel⁺ ≥ sel_i) ≈ 1 − β``, then solve ``QCOST(f, SEL⁺) = T_i``
  (equation 3.4). Bigger ``d_β`` ⇒ more pessimistic selectivities ⇒
  smaller stages ⇒ lower risk of overspending but more stage overhead —
  exactly the trade the paper's tables sweep.
* :class:`SingleInterval` — treat the *whole query's* stage time as the
  random quantity: reserve ``d_α·sqrt(Var(t_i))`` out of ``T_i`` and solve
  ``μ_t = QCOST(f, SEL^{i−1}) = T_i − d_α·sqrt(Var(t_i))`` (equations
  3.1–3.2). The variance of the stage time is propagated from the operator
  selectivity variances and their pairwise covariances (estimated from the
  per-stage selectivity series), which the paper notes is "a very expensive
  procedure" — the reason its prototype prefers One-at-a-Time.
* :class:`FixedFractionHeuristic` — the paper mentions but does not define
  its heuristic strategy. We implement the natural non-statistical
  comparator: spend a fixed share γ of the remaining quota per stage, priced
  with the measured seconds-per-block of earlier stages (see DESIGN.md §3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.costmodel import steps as step_names
from repro.engine.nodes import MEAN_SELECTIVITY, SelCurves
from repro.engine.plan import StagedPlan
from repro.errors import TimeControlError
from repro.estimation.selectivity import SelectivityTracker
from repro.observability.trace import FractionChosen
from repro.timecontrol.sample_size import EPSILON_RATIO, determine_stage_size

if TYPE_CHECKING:
    from repro.timecontrol.executor import StageReport

Stages = Sequence["StageReport"]
"""A run's stages so far, oldest first: all a strategy knows of the run."""


class TimeControlStrategy:
    """Base class: choose the next stage's sample fraction.

    A strategy is an immutable value that reads the run's history from the
    run (:data:`Stages`), so one instance serves any number of runs.
    """

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stages: Stages
    ) -> float | None:
        """Fraction for the stage after ``stages`` (the run's stages so
        far); ``None`` = no feasible stage."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    # Helpers shared by the statistical strategies ------------------------
    @staticmethod
    def _budget(plan: StagedPlan, remaining_seconds: float) -> float:
        """Stage budget after reserving the predicted per-stage overhead."""
        overhead = plan.cost_model.predict(step_names.STAGE_OVERHEAD, [1.0])
        return remaining_seconds - overhead

    def _bisect(
        self,
        plan: StagedPlan,
        remaining_seconds: float,
        stages: Stages,
        cost: Callable[[float], float],
    ) -> float | None:
        """Figure 3.4 over whole stage sizes; returns ``f = k / D_max``.

        A stage of size ``k`` is ``k`` blocks of the plan's largest operand
        (``D_max`` = ``plan.max_block_count``); ``cost`` prices the fraction
        that stands for it. Where every scan has ``D_max`` blocks, the sizes
        reach every allotment a real-valued ``f`` could.
        """
        budget = self._budget(plan, remaining_seconds)
        unit = plan.max_block_count
        size, iterations = determine_stage_size(
            lambda k: cost(k / unit),
            budget,
            plan.max_stage_size(),
            EPSILON_RATIO,
        )
        fraction = None if size is None else size / unit
        return self._trace_choice(plan, stages, fraction, budget, iterations)

    @staticmethod
    def _trace_choice(
        plan: StagedPlan,
        stages: Stages,
        fraction: float | None,
        budget: float,
        iterations: int = 0,
    ) -> float | None:
        plan.sink.emit(
            FractionChosen(
                stage=len(stages) + 1,
                fraction=fraction,
                budget_seconds=budget,
                bisection_iterations=iterations,
            )
        )
        return fraction


@dataclass(frozen=True)
class OneAtATimeInterval(TimeControlStrategy):
    """Per-operator risk control via ``sel⁺`` (the prototype's strategy).

    ``d_beta`` is the paper's ``d_β`` — the number of (approximate) standard
    deviations added to each operator's selectivity. The experiments sweep
    d_β ∈ {0, 12, 24, 48, 72}; the values are large compared to normal-table
    quantiles because the SRS variance approximation understates the cluster
    plan's variance (Section 5.A explains this).
    """

    d_beta: float = 12.0

    def __post_init__(self) -> None:
        if self.d_beta < 0:
            raise TimeControlError(f"d_beta must be >= 0, got {self.d_beta}")

    def sel_provider(self) -> SelCurves:
        d_beta = self.d_beta
        return SelCurves(
            lambda tracker, space_points: tracker.sel_plus_curve(d_beta, space_points)
        )

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stages: Stages
    ) -> float | None:
        curve = plan.stage_curve(self.sel_provider())
        return self._bisect(plan, remaining_seconds, stages, curve)

    def describe(self) -> str:
        return f"OneAtATimeInterval(d_beta={self.d_beta})"


DEFAULT_STRATEGY: TimeControlStrategy = OneAtATimeInterval(d_beta=24.0)
"""The strategy a run gets when none is given: the prototype's d_β = 24."""


#: Selectivity bump of :class:`SingleInterval`'s numerical QCOST gradient.
GRADIENT_STEP = 1e-4


@dataclass(frozen=True)
class SingleInterval(TimeControlStrategy):
    """Whole-query risk control: ``T_i = μ_t + d_α·sqrt(Var(t_i))``.

    The stage-time variance is propagated with the delta method:
    ``Var(QCOST) ≈ Σ_uv g_u g_v Cov(sel_u, sel_v)`` where ``g`` is the
    numerical gradient of QCOST with respect to each operator's selectivity,
    the diagonal uses the SRS selectivity variance, and the off-diagonal
    covariances come from the per-stage selectivity series observed so far
    ("covariances between sel^{i−1}'s … can be used as plausible values",
    Section 3.3.1).
    """

    d_alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.d_alpha < 0:
            raise TimeControlError(f"d_alpha must be >= 0, got {self.d_alpha}")

    def _bumped_provider(self, bump: SelectivityTracker) -> SelCurves:
        def per_tracker(tracker: SelectivityTracker, space_points: int):
            sel = tracker.mean_selectivity()
            if tracker is bump:
                sel = min(sel + GRADIENT_STEP, 1.0)
            return lambda new_points: sel

        return SelCurves(per_tracker)

    def _covariance(
        self, a: SelectivityTracker, b: SelectivityTracker
    ) -> float:
        sa = a.per_stage_selectivities()
        sb = b.per_stage_selectivities()
        n = min(len(sa), len(sb))
        if n < 2:
            return 0.0
        return float(np.cov(sa[-n:], sb[-n:], ddof=1)[0, 1])

    def _margin_curve(self, plan: StagedPlan) -> Callable[[float], float]:
        """``f -> μ_t + d_α·sqrt(Var(t_i))``: the mean curve, one bumped
        curve per operator, the variances and covariances, built once."""
        mean = plan.stage_curve(MEAN_SELECTIVITY)
        if self.d_alpha == 0:
            return mean
        nodes = plan.tracked_nodes()
        trackers = [node.tracker for node in nodes]
        # Numerical gradient of QCOST w.r.t. each operator's selectivity.
        bumped = [plan.stage_curve(self._bumped_provider(t)) for t in trackers]
        at = [mean.nodes.index(node) for node in nodes]
        # Diagonal: the SRS selectivity variance at this stage size.
        variances = [
            t.variance_curve(node.space_points())
            if t.stages_observed
            else (lambda points: 0.0)
            for node, t in zip(nodes, trackers)
        ]
        covariances = [
            [self._covariance(tu, tv) for tv in trackers[u + 1 :]]
            for u, tu in enumerate(trackers)
        ]

        def cost(fraction: float) -> float:
            mu, _, new_points = mean.price(fraction)
            grads = [(curve(fraction) - mu) / GRADIENT_STEP for curve in bumped]
            variance = 0.0
            for u, var_u in enumerate(variances):
                points = max(int(new_points[at[u]]), 1)
                variance += grads[u] * grads[u] * var_u(points)
                for v, cov in enumerate(covariances[u], start=u + 1):
                    variance += 2.0 * grads[u] * grads[v] * cov
            return mu + self.d_alpha * math.sqrt(max(variance, 0.0))

        return cost

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stages: Stages
    ) -> float | None:
        return self._bisect(
            plan, remaining_seconds, stages, self._margin_curve(plan)
        )

    def describe(self) -> str:
        return f"SingleInterval(d_alpha={self.d_alpha})"


@dataclass(frozen=True)
class FixedFractionHeuristic(TimeControlStrategy):
    """Spend share γ of the remaining quota per stage (the heuristic).

    Stage 1 is a fixed probe (``probe_fraction`` of each relation); later
    stages size themselves from the measured seconds-per-block of the stages
    so far. No statistical risk control at all — the comparison point for
    ablation A1.
    """

    gamma: float = 0.5
    probe_fraction: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise TimeControlError(f"gamma must be in (0,1], got {self.gamma}")
        if not 0 < self.probe_fraction <= 1:
            raise TimeControlError("probe_fraction must be in (0,1]")

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stages: Stages
    ) -> float | None:
        fraction = self._choose(plan, remaining_seconds, seconds_per_block(stages))
        return self._trace_choice(plan, stages, fraction, remaining_seconds)

    def _choose(
        self, plan: StagedPlan, remaining_seconds: float, per_block: float | None
    ) -> float | None:
        min_f = plan.min_feasible_fraction()
        max_f = plan.max_remaining_fraction()
        if min_f <= 0 or max_f <= 0:
            return None
        if per_block is None:
            return min(max(self.probe_fraction, min_f), max_f)
        target = self.gamma * remaining_seconds
        blocks_affordable = target / per_block
        total_blocks = sum(s.relation.block_count for s in plan.scans)
        if total_blocks == 0:
            return None
        f = blocks_affordable / total_blocks
        if f < min_f:
            # Cannot afford even one block at the target share — but if the
            # *whole* remaining time affords the minimum stage, take it.
            if remaining_seconds / per_block >= 1.0:
                return min_f
            return None
        return min(f, max_f)

    def describe(self) -> str:
        return f"FixedFractionHeuristic(gamma={self.gamma})"


def seconds_per_block(stages: Stages) -> float | None:
    """Charged seconds per block read over ``stages``, smoothed towards the
    recent ones; ``None`` until a stage has read a block in positive time."""
    per_block = None
    for stage in stages:
        seconds, blocks = stage.duration, stage.blocks_read
        if blocks <= 0 or seconds <= 0:
            continue
        if per_block is None:
            per_block = seconds / blocks
        else:
            per_block = 0.5 * per_block + 0.5 * seconds / blocks
    return per_block
