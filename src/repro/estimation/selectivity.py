"""Run-time sample-selectivity estimation (Figures 3.3 and 3.5).

The paper's *run-time estimation approach*: "the selectivity of an operation
is estimated at run-time, and also the precision of the estimated sample
selectivity is improved at run-time … it does not need any specific
information about a query."

One :class:`SelectivityTracker` exists per RA operator in the query. It
implements:

* **Revise-Selectivities** (Figure 3.3): before any data,
  ``sel⁰`` is a configured maximum (1 for Select/Project/Join,
  ``1/max(|r1|,|r2|)`` for Intersect); afterwards
  ``sel^{i−1} = Σ_j tuples_j / Σ_j points_j`` over stages 1 … i−1.
* **ComputeSel⁺** (Figure 3.5 / equation 3.3):
  ``sel⁺ = sel^{i−1} + d_β · sqrt(Var(sel_i))`` with the simple-random-
  sampling variance approximation
  ``Var(sel_i) = sel(1−sel)(N_i − m_i)/(m_i(N_i − 1))``, where ``m_i`` is
  the points the candidate stage would sample and ``N_i`` the points not yet
  included. The approximation "usually gives a smaller value … some
  inaccuracy in the risk control is expected" (Section 3.3) — exactly what
  experiment 5.A observes as risk ≈ 50% at d_β = 0.
* **The zero-selectivity fix** (Section 3.4): a stage observing zero output
  tuples would freeze ``sel⁺`` at 0 and guarantee overspending later. The
  paper fixes it with "a combinatorial formula (which is closed and easy to
  compute)" from the unavailable tech report; we use the closed
  hypergeometric upper bound ``sel = 1 − β^{1/M}`` (``M`` points observed,
  confidence ``1−β``) — the largest selectivity still consistent, at level
  β, with having seen no output tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.errors import EstimationError
from repro.estimation.count_estimators import srs_selectivity_variance
from repro.observability.trace import SelectivityRevision, TraceSink


@dataclass(frozen=True)
class StageObservation:
    """One stage's (output tuples, sampled points) for an operator."""

    tuples: int
    points: int

    def __post_init__(self) -> None:
        if self.points < 0 or self.tuples < 0:
            raise EstimationError(
                f"negative stage observation ({self.tuples}, {self.points})"
            )


DEFAULT_ZERO_FIX_BETA = 0.05
"""Confidence parameter of the zero-selectivity hypergeometric bound."""


@dataclass
class StageLedger:
    """What a staged node counts: one (tuples, points) pair per stage.

    The two running sums are Revise-Selectivities' whole state
    (Figure 3.3); a staged node's stage index, cumulative outputs and
    covered points are views of this one record, so a salvage rollback
    restores a single integer.
    """

    # Keyword-only, so a subclass may put required fields of its own first.
    observations: list[StageObservation] = field(
        default_factory=list, kw_only=True
    )
    # Running Σ tuples / Σ points over ``observations`` (integers, so exact):
    # ``sel_plus`` reads them four times per candidate stage size.
    total_tuples: int = field(default=0, init=False, repr=False, compare=False)
    total_points: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._retotal()

    def record_stage(self, tuples: int, points: int) -> None:
        """Record one completed stage's output count and sampled points."""
        self.observations.append(StageObservation(tuples, points))
        self.total_tuples += tuples
        self.total_points += points

    @property
    def last(self) -> StageObservation:
        """The latest completed stage's observation."""
        return self.observations[-1]

    def snapshot(self) -> int:
        """Opaque rollback token: the observation count."""
        return len(self.observations)

    def restore(self, token: int) -> None:
        """Forget observations recorded after a :meth:`snapshot` token."""
        if not 0 <= token <= len(self.observations):
            raise EstimationError(
                f"cannot restore to {token} observations "
                f"(has {len(self.observations)})"
            )
        del self.observations[token:]
        self._retotal()

    def _retotal(self) -> None:
        self.total_tuples = sum(o.tuples for o in self.observations)
        self.total_points = sum(o.points for o in self.observations)

    @property
    def stages_observed(self) -> int:
        return len(self.observations)


@dataclass
class SelectivityTracker(StageLedger):
    """Run-time selectivity state of one RA operator (see module docs).

    The counting half is the :class:`StageLedger` it extends.

    ``prior_tuples`` / ``prior_points`` are warm-start pseudo-counts from
    the synopsis catalog (:mod:`repro.synopses`): evidence pooled from
    earlier runs of the same operator subtree. They participate in
    ``sel_prev`` exactly like observed stages, so a warm-started operator
    enters stage 1 with ``sel⁺ = posterior + d_β·sqrt(Var)`` instead of the
    assumed maximum — but they are *not* stage observations: the run's own
    estimator, salvage snapshots, and per-stage series see only what this
    session actually sampled.
    """

    label: str
    initial: float
    zero_fix_beta: float = DEFAULT_ZERO_FIX_BETA
    pinned: bool = False
    sink: TraceSink | None = field(default=None, repr=False, compare=False)
    prior_tuples: float = 0.0
    prior_points: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.initial <= 1.0:
            raise EstimationError(
                f"{self.label}: initial selectivity must be in (0,1], "
                f"got {self.initial}"
            )
        if not 0.0 < self.zero_fix_beta < 1.0:
            raise EstimationError("zero_fix_beta must be in (0,1)")
        if self.prior_points < 0 or self.prior_tuples < 0:
            raise EstimationError(
                f"{self.label}: negative warm-start prior "
                f"({self.prior_tuples}, {self.prior_points})"
            )

    def warm_start(self, tuples: float, points: float) -> None:
        """Seed the tracker with pooled (tuples, points) prior evidence.

        Must happen before any stage is observed; pinned trackers refuse —
        prestored mode means "never learn", including from the catalog.
        """
        if self.pinned:
            raise EstimationError(f"{self.label}: cannot warm-start a pinned tracker")
        if self.observations:
            raise EstimationError(
                f"{self.label}: warm_start after {len(self.observations)} stages"
            )
        if points <= 0 or tuples < 0:
            raise EstimationError(
                f"{self.label}: invalid warm-start prior ({tuples}, {points})"
            )
        self.prior_tuples = float(tuples)
        self.prior_points = float(points)

    @property
    def has_prior(self) -> bool:
        return self.prior_points > 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def record_stage(self, tuples: int, points: int) -> None:
        super().record_stage(tuples, points)
        if self.sink is not None:
            self.sink.emit(
                SelectivityRevision(
                    operator=self.label,
                    stage=len(self.observations),
                    tuples=tuples,
                    points=points,
                    sel_prev=self.sel_prev,
                )
            )

    # ------------------------------------------------------------------
    # Revise-Selectivities (Figure 3.3)
    # ------------------------------------------------------------------
    @property
    def sel_prev(self) -> float:
        """``sel^{i−1}`` — pooled selectivity of prior + previous stages.

        A *pinned* tracker (pure prestored mode, see
        :mod:`repro.statistics.prestored`) always reports its configured
        value and never learns from the samples. Warm-start pseudo-counts
        pool with the observed stages, so the catalog's evidence is diluted
        (not replaced) by what this run actually sees.
        """
        if self.pinned:
            return self.initial
        points = self.total_points + self.prior_points
        if points == 0:
            return self.initial
        return (self.total_tuples + self.prior_tuples) / points

    def effective_sel_prev(self) -> float:
        """``sel^{i−1}`` with the zero-selectivity fix applied."""
        sel = self.sel_prev
        if sel > 0.0:
            return sel
        return self.zero_selectivity_bound()

    def mean_selectivity(self) -> float:
        """The selectivity a stage is priced at before any risk margin.

        The assumed ``initial`` while there is neither a stage nor a prior
        (stage 1, cold), else :meth:`effective_sel_prev`.
        """
        if self.stages_observed == 0 and not self.has_prior:
            return self.initial
        return self.effective_sel_prev()

    def zero_selectivity_bound(self) -> float:
        """The closed-form bound used when all observed points were 0.

        Largest selectivity ``S`` with ``P(no output in M draws) ≥ β``:
        under with-replacement draws ``(1−S)^M ≥ β`` ⇒ ``S = 1 − β^{1/M}``
        (a slight over-estimate versus the hypergeometric, i.e. safe).
        """
        observed = self.total_points + self.prior_points
        if observed <= 0:
            return self.initial
        return 1.0 - self.zero_fix_beta ** (1.0 / observed)

    # ------------------------------------------------------------------
    # ComputeSel+ (Figure 3.5 / equation 3.3)
    # ------------------------------------------------------------------
    def variance(self, candidate_points: int, space_points: int) -> float:
        """SRS approximation of ``Var(sel_i)`` for a candidate stage size."""
        return self.variance_curve(space_points)(candidate_points)

    def variance_curve(self, space_points: int) -> Callable[[int], float]:
        """``candidate_points -> Var(sel_i)``; the tracker is read once, here."""
        sel = self.effective_sel_prev()
        remaining = space_points - self.total_points  # N_i: not yet included
        # A stage of m_i ≥ N_i points takes all that is left: variance 0.
        return partial(srs_selectivity_variance, sel, not_yet_sampled=remaining)

    def sel_plus(
        self, d_beta: float, candidate_points: int, space_points: int
    ) -> float:
        """``sel⁺ = sel^{i−1} + d_β·sqrt(Var(sel_i))``, clamped to (0, 1]."""
        return self.sel_plus_curve(d_beta, space_points)(candidate_points)

    def sel_plus_curve(
        self, d_beta: float, space_points: int
    ) -> Callable[[int], float]:
        """``candidate_points -> sel⁺`` in a point space of ``space_points``:
        ``sel^{i−1}`` and the points not yet included are read once, here."""
        if d_beta < 0:
            raise EstimationError(f"d_beta must be non-negative, got {d_beta}")
        initial = self.initial
        if self.pinned or (self.stages_observed == 0 and not self.has_prior):
            # Pinned, or stage 1 cold: the assumed maximum stands alone.
            return lambda candidate_points: initial
        sel = self.effective_sel_prev()
        variance = self.variance_curve(space_points)
        return lambda points: min(
            max(sel + d_beta * variance(points) ** 0.5, 1e-12), 1.0
        )

    # ------------------------------------------------------------------
    # Series access (for the Single-Interval covariance machinery)
    # ------------------------------------------------------------------
    def per_stage_selectivities(self) -> list[float]:
        """``sel_j`` per completed stage (stages with zero points skipped)."""
        return [o.tuples / o.points for o in self.observations if o.points > 0]
