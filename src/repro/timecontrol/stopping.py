"""Stopping criteria (Section 3.2).

Two families, mirroring the paper:

* **Time-based.** :class:`HardDeadline` — the timer interrupt aborts the
  running stage the moment the quota is spent (the criterion the prototype
  uses, "because of its simplicity and wide applicability in the real-time
  database environment"). :class:`SoftDeadline` — the deadline is only
  checked between stages, which is what Figure 3.1's while-loop literally
  implements ("the algorithm shown in Figure 3.1 actually implements a soft
  time constraint").
* **Precision-based.** :class:`ErrorConstrained` — stop once the estimate's
  relative confidence-interval half-width reaches a target, or when the
  estimate has stopped improving ("whenever the estimation does not improve
  'much' over the last few stages").

:class:`AnyOf` combines criteria ("combinations of both types of criteria
are also possible").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import TimeControlError
from repro.estimation.estimate import Estimate


@dataclass
class StopState:
    """What a criterion may inspect at the end of a stage."""

    stage: int
    remaining_seconds: float
    estimate: Estimate | None
    estimate_history: list[Estimate] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    last_stage_seconds: float = 0.0
    """Duration of the latest stage that took any time (0 before one has)."""


class StoppingCriterion:
    """Base class; subclasses override :meth:`should_stop`.

    A criterion is an immutable value: everything it reads about a run
    arrives in the :class:`StopState`, so one instance serves any number of
    runs. ``hard`` declares whether the executor arms the charger's mid-stage
    timer interrupt (True) or only checks between stages (False).
    """

    hard: bool = False

    def should_stop(self, state: StopState) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class HardDeadline(StoppingCriterion):
    """Abort mid-stage at the quota — the paper's chosen criterion."""

    hard: bool = field(default=True, init=False)

    def should_stop(self, state: StopState) -> bool:
        return state.remaining_seconds <= 0.0


@dataclass(frozen=True)
class SoftDeadline(StoppingCriterion):
    """Check the quota only between stages (Figure 3.1 as written)."""

    hard: bool = field(default=False, init=False)

    def should_stop(self, state: StopState) -> bool:
        return state.remaining_seconds <= 0.0


@dataclass(frozen=True)
class ErrorConstrained(StoppingCriterion):
    """Stop at a target precision or when improvement stalls.

    ``target_relative_halfwidth`` — stop once the CI half-width divided by
    the estimate is at or below this (checked at ``confidence`` level).
    ``stall_stages`` / ``stall_tolerance`` — alternatively stop when the
    estimate changed by less than ``stall_tolerance`` (relative) over the
    last ``stall_stages`` stages.
    """

    target_relative_halfwidth: float = 0.1
    confidence: float = 0.95
    stall_stages: int = 0
    stall_tolerance: float = 0.01
    hard: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.target_relative_halfwidth <= 0:
            raise TimeControlError("target half-width must be positive")
        if not 0 < self.confidence < 1:
            raise TimeControlError("confidence must be in (0,1)")

    def should_stop(self, state: StopState) -> bool:
        est = state.estimate
        if est is None:
            return False
        if est.exact:
            return True
        if (
            est.value > 0
            and est.relative_error_bound(self.confidence)
            <= self.target_relative_halfwidth
        ):
            return True
        if self.stall_stages > 1 and len(state.estimate_history) >= self.stall_stages:
            window = state.estimate_history[-self.stall_stages :]
            lo = min(e.value for e in window)
            hi = max(e.value for e in window)
            center = max(abs(hi), abs(lo), 1e-12)
            if (hi - lo) / center <= self.stall_tolerance:
                return True
        return False


@dataclass(frozen=True)
class ValueFunction(StoppingCriterion):
    """Soft deadline via a completion-time value function (Section 3.2).

    "By defining a value function for the completion time of a query, the
    system decides when to stop processing the query to get a higher
    value." The utility of answering at time ``t`` with the current
    precision is modelled as

        U(t) = value(t) · (1 − min(relative CI half-width, 1))

    and the criterion stops when running one more stage (projected to last
    as long as the previous one, shrinking the half-width by the usual
    ``sqrt(t/(t+Δ))`` sampling factor) is expected to *lower* the utility —
    i.e. the time-value lost exceeds the precision gained.

    ``value`` maps elapsed seconds to a non-negative worth; the classic
    soft-deadline shapes are a plateau followed by linear decay, e.g.
    ``lambda t: max(0.0, 1.0 - max(t - soft, 0.0) / grace)``.
    """

    value: "Callable[[float], float]" = None  # type: ignore[assignment]
    confidence: float = 0.95
    hard: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.value is None:
            raise TimeControlError("ValueFunction needs a value callable")
        if not 0 < self.confidence < 1:
            raise TimeControlError("confidence must be in (0,1)")

    def should_stop(self, state: StopState) -> bool:
        est = state.estimate
        if est is None:
            return False
        if est.exact:
            return True
        elapsed = max(state.elapsed_seconds, 1e-9)
        halfwidth = min(est.relative_error_bound(self.confidence), 1.0)
        utility_now = max(self.value(elapsed), 0.0) * (1.0 - halfwidth)
        step = state.last_stage_seconds or elapsed
        projected_time = elapsed + step
        shrink = (elapsed / projected_time) ** 0.5
        utility_next = max(self.value(projected_time), 0.0) * (
            1.0 - halfwidth * shrink
        )
        return utility_next <= utility_now


@dataclass(frozen=True)
class AnyOf(StoppingCriterion):
    """Stop when any sub-criterion fires; hard if any sub-criterion is."""

    criteria: Sequence[StoppingCriterion]

    def __post_init__(self) -> None:
        if not self.criteria:
            raise TimeControlError("AnyOf needs at least one criterion")
        object.__setattr__(self, "criteria", tuple(self.criteria))

    @property
    def hard(self) -> bool:
        return any(c.hard for c in self.criteria)

    def should_stop(self, state: StopState) -> bool:
        return any(c.should_stop(state) for c in self.criteria)

    def describe(self) -> str:
        return " | ".join(c.describe() for c in self.criteria)


def unlimited_quota() -> float:
    """A quota for purely error-constrained runs (no time limit)."""
    return math.inf
