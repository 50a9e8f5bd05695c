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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.costmodel import steps as step_names
from repro.engine.nodes import PredictContext, SelProvider, StagedNode
from repro.engine.plan import StagedPlan
from repro.errors import TimeControlError
from repro.estimation.selectivity import SelectivityTracker
from repro.observability.trace import FractionChosen
from repro.timecontrol.sample_size import determine_stage_size


class TimeControlStrategy:
    """Base class: choose the next stage's sample fraction."""

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stage: int
    ) -> float | None:
        """Fraction for stage ``stage``; ``None`` = no feasible stage."""
        raise NotImplementedError

    def note_stage(self, seconds: float, blocks: int) -> None:
        """One executed stage's charged seconds and blocks read; strategies
        that size stages from measured throughput override this."""

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
        stage: int,
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
            self.epsilon_ratio,
        )
        fraction = None if size is None else size / unit
        return self._trace_choice(plan, stage, fraction, budget, iterations)

    @staticmethod
    def _trace_choice(
        plan: StagedPlan,
        stage: int,
        fraction: float | None,
        budget: float,
        iterations: int = 0,
    ) -> float | None:
        plan.sink.emit(
            FractionChosen(
                stage=stage,
                fraction=fraction,
                budget_seconds=budget,
                bisection_iterations=iterations,
            )
        )
        return fraction


@dataclass
class OneAtATimeInterval(TimeControlStrategy):
    """Per-operator risk control via ``sel⁺`` (the prototype's strategy).

    ``d_beta`` is the paper's ``d_β`` — the number of (approximate) standard
    deviations added to each operator's selectivity. The experiments sweep
    d_β ∈ {0, 12, 24, 48, 72}; the values are large compared to normal-table
    quantiles because the SRS variance approximation understates the cluster
    plan's variance (Section 5.A explains this).
    """

    d_beta: float = 12.0
    epsilon_ratio: float = 0.02

    def __post_init__(self) -> None:
        if self.d_beta < 0:
            raise TimeControlError(f"d_beta must be >= 0, got {self.d_beta}")
        if self.epsilon_ratio <= 0:
            raise TimeControlError("epsilon_ratio must be positive")

    def sel_provider(self) -> SelProvider:
        d_beta = self.d_beta

        def provide(
            tracker: SelectivityTracker, new_points: int, space_points: int
        ) -> float:
            return tracker.sel_plus(d_beta, new_points, space_points)

        return provide

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stage: int
    ) -> float | None:
        provider = self.sel_provider()
        return self._bisect(
            plan, remaining_seconds, stage, lambda f: plan.predict_stage(f, provider)
        )

    def describe(self) -> str:
        return f"OneAtATimeInterval(d_beta={self.d_beta})"


def default_strategy() -> TimeControlStrategy:
    """The strategy a run gets when none is given: the prototype's d_β = 24.

    A factory, not a constant — strategies carry per-run state.
    """
    return OneAtATimeInterval(d_beta=24.0)


@dataclass
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
    epsilon_ratio: float = 0.02
    _gradient_step: float = field(default=1e-4, repr=False)

    def __post_init__(self) -> None:
        if self.d_alpha < 0:
            raise TimeControlError(f"d_alpha must be >= 0, got {self.d_alpha}")
        if self.epsilon_ratio <= 0:
            raise TimeControlError("epsilon_ratio must be positive")

    @staticmethod
    def _mean_provider() -> SelProvider:
        def provide(
            tracker: SelectivityTracker, new_points: int, space_points: int
        ) -> float:
            return tracker.mean_selectivity()

        return provide

    def _bumped_provider(self, bump: SelectivityTracker) -> SelProvider:
        step = self._gradient_step

        def provide(
            tracker: SelectivityTracker, new_points: int, space_points: int
        ) -> float:
            base = tracker.mean_selectivity()
            if tracker is bump:
                return min(base + step, 1.0)
            return base

        return provide

    def _covariance(
        self, a: SelectivityTracker, b: SelectivityTracker
    ) -> float:
        sa = a.per_stage_selectivities()
        sb = b.per_stage_selectivities()
        n = min(len(sa), len(sb))
        if n < 2:
            return 0.0
        return float(np.cov(sa[-n:], sb[-n:], ddof=1)[0, 1])

    def _stage_cost_with_margin(
        self,
        plan: StagedPlan,
        fraction: float,
        nodes: list[StagedNode] | None = None,
    ) -> float:
        """``μ_t + d_α·sqrt(Var(t_i))``; ``nodes`` = ``plan.tracked_nodes()``."""
        mean_provider = self._mean_provider()
        mu = plan.predict_stage(fraction, mean_provider)
        if self.d_alpha == 0:
            return mu
        nodes = nodes or plan.tracked_nodes()
        trackers = [node.tracker for node in nodes]
        # Numerical gradient of QCOST w.r.t. each operator's selectivity.
        grads: list[float] = []
        for tracker in trackers:
            bumped = plan.predict_stage(fraction, self._bumped_provider(tracker))
            grads.append((bumped - mu) / self._gradient_step)
        variance = 0.0
        ctx = PredictContext(fraction, mean_provider)
        for u, (node, tu) in enumerate(zip(nodes, trackers)):
            # Diagonal: the SRS selectivity variance at this stage size.
            points = max(int(node._new_points_predicted(ctx)), 1)
            var_u = 0.0
            if tu.stages_observed:
                var_u = tu.variance(points, node.space_points())
            variance += grads[u] * grads[u] * var_u
            for v in range(u + 1, len(trackers)):
                cov = self._covariance(tu, trackers[v])
                variance += 2.0 * grads[u] * grads[v] * cov
        variance = max(variance, 0.0)
        return mu + self.d_alpha * math.sqrt(variance)

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stage: int
    ) -> float | None:
        nodes = plan.tracked_nodes()  # tracker → node, once per bisection
        return self._bisect(
            plan,
            remaining_seconds,
            stage,
            lambda f: self._stage_cost_with_margin(plan, f, nodes),
        )

    def describe(self) -> str:
        return f"SingleInterval(d_alpha={self.d_alpha})"


@dataclass
class FixedFractionHeuristic(TimeControlStrategy):
    """Spend share γ of the remaining quota per stage (the heuristic).

    Stage 1 is a fixed probe (``probe_fraction`` of each relation); later
    stages size themselves from the measured seconds-per-block of the stages
    so far. No statistical risk control at all — the comparison point for
    ablation A1.
    """

    gamma: float = 0.5
    probe_fraction: float = 0.01
    _seconds_per_block: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise TimeControlError(f"gamma must be in (0,1], got {self.gamma}")
        if not 0 < self.probe_fraction <= 1:
            raise TimeControlError("probe_fraction must be in (0,1]")

    def note_stage(self, seconds: float, blocks: int) -> None:
        """Feed back one executed stage (the executor calls this)."""
        if blocks <= 0 or seconds <= 0:
            return
        total_blocks = blocks if self._seconds_per_block is None else None
        if total_blocks is not None:
            self._seconds_per_block = seconds / blocks
        else:
            # Exponentially smoothed update favouring recent stages.
            self._seconds_per_block = (
                0.5 * self._seconds_per_block + 0.5 * seconds / blocks
            )

    def choose_fraction(
        self, plan: StagedPlan, remaining_seconds: float, stage: int
    ) -> float | None:
        fraction = self._choose(plan, remaining_seconds)
        return self._trace_choice(plan, stage, fraction, remaining_seconds)

    def _choose(self, plan: StagedPlan, remaining_seconds: float) -> float | None:
        min_f = plan.min_feasible_fraction()
        max_f = plan.max_remaining_fraction()
        if min_f <= 0 or max_f <= 0:
            return None
        if self._seconds_per_block is None:
            return min(max(self.probe_fraction, min_f), max_f)
        target = self.gamma * remaining_seconds
        blocks_affordable = target / self._seconds_per_block
        total_blocks = sum(s.relation.block_count for s in plan.scans)
        if total_blocks == 0:
            return None
        f = blocks_affordable / total_blocks
        if f < min_f:
            # Cannot afford even one block at the target share — but if the
            # *whole* remaining time affords the minimum stage, take it.
            if remaining_seconds / self._seconds_per_block >= 1.0:
                return min_f
            return None
        return min(f, max_f)

    def describe(self) -> str:
        return f"FixedFractionHeuristic(gamma={self.gamma})"
