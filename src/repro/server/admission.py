"""Admission control — is this request feasible inside its quota?

The test is the paper's own machinery pointed at a new question. For one
query, Figure 3.4 bisection asks "what fraction fits the remaining time?";
for a *stream* of queries, the server asks the inverse: "does the smallest
possible useful stage fit the time this request will have left once it
reaches the head of the queue?" Both are priced by the same calibrated
adaptive cost model (Section 4), so admission gets sharper as the server
executes queries and the model refits its coefficients.

:func:`minimum_stage_cost` prices the cheapest non-trivial stage — stage
overhead plus ``QCOST`` at the smallest fraction that draws one new block —
using the plan's initial selectivities (prestored hints when available,
Figure 3.3's maximum otherwise). A request whose projected budget at
dispatch cannot cover even that is infeasible: running it would burn server
time to return nothing.

What to *do* with an infeasible request is policy:

* :class:`RejectInfeasible` — turn it away at arrival (the client can retry
  with a bigger quota);
* :class:`DegradeInfeasible` — answer it instantly from prestored
  statistics with a wide confidence interval (:mod:`repro.server.degrade`);
* :class:`AdmitAll` — no admission control at all: every request is queued
  and dispatched regardless of feasibility. This is the measured baseline
  the overload benchmark compares against, not a recommended mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.engine.plan import StagedPlan
from repro.planner.explain import predicted_stage_costs
from repro.server.preempt import projected_handback
from repro.server.request import QueryRequest


class AdmissionAction(enum.Enum):
    """What the policy decided to do with an arriving request."""

    ADMIT = "admit"
    DEGRADE = "degrade"
    REJECT = "reject"


@dataclass(frozen=True)
class FeasibilityReport:
    """The numbers an admission policy rules on.

    ``budget_now`` is the time between now and the request's absolute
    deadline; ``projected_wait`` is the expected queue delay in front of it
    (work with earlier effective deadlines, accumulated in dispatch order
    so each ticket's spend is priced at the clock position its turn would
    start); their difference is the budget the request will actually have
    when dispatched, to be compared against ``min_stage_cost`` — the
    cost-model price of the cheapest useful stage. Under preemption
    (``QueryServer(preempt=True)``) the same projection covers mid-flight
    arrivals: a request that would preempt the runner excludes the runner's
    residual spend from its wait, while one that would queue behind it
    includes it.
    """

    min_stage_cost: float
    projected_wait: float
    budget_now: float

    @property
    def budget_at_start(self) -> float:
        return self.budget_now - self.projected_wait

    def feasible(self, safety_margin: float = 1.0) -> bool:
        """Can the request afford at least one stage, with margin to spare?"""
        return self.budget_at_start >= safety_margin * self.min_stage_cost


@dataclass(frozen=True)
class AdmissionDecision:
    """The policy's ruling plus the reason handed back to the client."""

    action: AdmissionAction
    reason: str


def minimum_stage_cost(plan: StagedPlan) -> float:
    """Price of the cheapest useful stage of ``plan`` (seconds).

    Stage overhead plus ``QCOST`` at the minimum feasible fraction (one new
    block on the smallest relation), under the plan's initial selectivities.
    ``plan`` comes from ``Database.plan``, which lowers the query exactly
    like the dispatch session will — optimizer included — but holds no RNG
    and cannot run, so pricing charges nothing to any clock and admission
    rules on the plan that will actually execute. The pricing routine is
    shared with ``Database.explain``
    (:func:`repro.planner.explain.predicted_stage_costs`).
    """
    return predicted_stage_costs(plan).total


def projected_wait(
    request: QueryRequest,
    queue: Iterable,
    now: float,
    running=None,
) -> float:
    """Expected queue delay: planned spend of work dispatched first.

    The work ahead of ``request`` is every queued ticket whose EDF key
    does not come after its own, walked in dispatch order by
    :func:`~repro.server.preempt.projected_handback` — the same arithmetic
    overload shedding and the preemption rule use. Tickets are duck-typed
    as there: ``priority`` / ``deadline`` / ``planned_spend(now)``.

    ``running`` is the mid-flight ticket when admission happens at a
    preemption checkpoint: it occupies the server ahead of this
    arrival unless the arrival's EDF key would preempt it.
    """
    key = (request.priority, request.deadline)
    ahead = sorted(
        ticket for ticket in queue if (ticket.priority, ticket.deadline) <= key
    )
    if running is not None and (running.priority, running.deadline) <= key:
        ahead.insert(0, running)
    return projected_handback(ahead, now) - now


class AdmissionPolicy:
    """Base policy: rule on a request given its feasibility report.

    ``enforce_at_dispatch`` additionally applies the feasibility floor when
    the request reaches the head of the queue (budgets shrink while
    waiting); policies that model "no admission control" turn it off so the
    scheduler faithfully burns time on doomed work, as an uncontrolled
    server would.
    """

    enforce_at_dispatch: bool = True

    def decide(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class FeasibilityPolicy(AdmissionPolicy):
    """Admit feasible requests; subclasses rule on the rest.

    ``safety_margin`` scales the feasibility floor: the budget at projected
    dispatch must cover ``safety_margin ×`` the minimum stage cost. Values
    above 1 absorb cost-model optimism and execution jitter at the price of
    turning away marginal requests.
    """

    safety_margin: float = 1.5

    def decide(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        if feasibility.feasible(self.safety_margin):
            return AdmissionDecision(
                AdmissionAction.ADMIT,
                f"budget {feasibility.budget_at_start:.3f}s covers "
                f"minimum stage {feasibility.min_stage_cost:.3f}s",
            )
        return self.refuse(request, feasibility)

    def refuse(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        """The ruling on a request that failed the feasibility test."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}(margin={self.safety_margin:g})"


@dataclass
class RejectInfeasible(FeasibilityPolicy):
    """Admit feasible requests; reject the rest at the door (the client
    can retry with a bigger quota)."""

    def refuse(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        return AdmissionDecision(
            AdmissionAction.REJECT,
            f"infeasible: budget at dispatch "
            f"{feasibility.budget_at_start:.3f}s < "
            f"{self.safety_margin:g}× minimum stage cost "
            f"{feasibility.min_stage_cost:.3f}s",
        )


@dataclass
class DegradeInfeasible(FeasibilityPolicy):
    """Admit feasible requests; answer the rest without sampling.

    The zero-sampling fallback (:mod:`repro.server.degrade`) returns a wide
    confidence interval instantly instead of failing — the serving-layer
    analogue of the paper's observation that prestored selectivities suit
    fixed query mixes: they are free at run time. Requests the statistics
    cannot cover are rejected with that reason.
    """

    def refuse(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        return AdmissionDecision(
            AdmissionAction.DEGRADE,
            f"infeasible within quota {request.quota:g}s; answering "
            "without sampling",
        )


class AdmitAll(AdmissionPolicy):
    """No admission control — the overload benchmark's 'off' arm."""

    enforce_at_dispatch = False

    def decide(
        self, request: QueryRequest, feasibility: FeasibilityReport
    ) -> AdmissionDecision:
        return AdmissionDecision(
            AdmissionAction.ADMIT, "admission control disabled"
        )
