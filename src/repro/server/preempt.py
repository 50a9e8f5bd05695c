"""Slack-aware preemption decisions for the query server.

Run-to-completion EDF has one failure mode the paper's serving story
cannot tolerate: a long-budget query holding the single server while a
tight-deadline request expires in the queue. The fix is classic real-time
scheduling — preempt — applied at the only points where a sampled
aggregate can stop without bias: stage boundaries, where the executor
already snapshots plan state for fault salvage.

:func:`should_preempt` is the whole policy. It is deliberately pure and
duck-typed (tickets only need ``priority`` / ``deadline`` / ``min_cost`` /
``planned_spend``), so it can be unit-tested without a server and the
scheduler can evolve its ticket type freely. The rule:

* Only a **strictly earlier** EDF key — ``(priority, deadline)`` — may
  preempt. Ties never preempt, so two equal-deadline requests cannot
  ping-pong, and each preemption strictly decreases the running key,
  bounding preemptions per request by the number of distinct earlier
  arrivals.
* The runner must have **slack**: project when the earlier work would
  hand the server back (:func:`projected_handback` — the one EDF
  planned-spend accumulation, shared with the admission wait and with
  overload shedding) and require the runner's residual budget at that
  instant to still cover its minimum useful stage. A runner without
  slack keeps the server — suspending it would trade a guaranteed answer
  for nothing, since its banked estimate would be all it ever gets.

Suspension itself is free and deterministic: it charges no simulated
time, draws no randomness, and keeps the original absolute deadline, so a
suspended-then-resumed run is bit-identical to an uninterrupted one
(invariant 11 in ``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PreemptDecision:
    """Why the running ticket is being suspended, for the trace stream."""

    challenger_id: str
    """Request id of the earliest-deadline waiter that triggered this."""

    challenger_deadline: float
    """That waiter's absolute deadline."""

    projected_resume: float
    """Clock time at which the earlier work is projected to hand back."""

    residual_budget: float
    """The runner's budget at ``projected_resume`` (>= its min stage)."""


def projected_handback(tickets: Iterable, now: float) -> float:
    """When ``tickets``, dispatched in the given order from ``now``, hand
    the server back.

    Each ticket's planned spend is priced at the clock position *its* turn
    would start, not at ``now``: a later ticket's spend is capped by a
    deadline that has drifted closer by the time its turn comes, so
    summing every spend at a fixed ``now`` over-prices the queue. Callers
    pass tickets in dispatch (EDF) order; the admission wait, overload
    shedding and :func:`should_preempt` all project through here.
    """
    projected = now
    for ticket in tickets:
        projected += ticket.planned_spend(projected)
    return projected


def should_preempt(
    running, queue: Sequence, now: float
) -> PreemptDecision | None:
    """Decide whether ``running`` should yield to the queue at ``now``.

    ``running`` and the queue entries are ticket-like: ``priority`` /
    ``deadline`` / ``min_cost`` attributes plus ``planned_spend(now)``.
    Returns a :class:`PreemptDecision` when a strictly-earlier-deadline
    ticket is waiting *and* the runner keeps enough slack to finish a
    useful stage after the earlier work drains; ``None`` otherwise.
    """
    key = (running.priority, running.deadline)
    earlier = sorted(
        t for t in queue if (t.priority, t.deadline) < key
    )
    if not earlier:
        return None
    projected = projected_handback(earlier, now)
    residual = running.deadline - projected
    if residual < running.min_cost:
        return None
    challenger = earlier[0]
    return PreemptDecision(
        challenger_id=challenger.request.request_id,
        challenger_deadline=challenger.deadline,
        projected_resume=projected,
        residual_budget=residual,
    )
