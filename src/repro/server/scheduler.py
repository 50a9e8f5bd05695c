"""The deadline-aware query server: admit → queue → run → outcome.

:class:`QueryServer` multiplexes many clients' deadline-bearing aggregate
queries over one :class:`~repro.core.database.Database` — the serving layer
the paper motivates in Section 1: once each query's execution time is
pinned to its quota, transaction completion times become predictable and a
scheduler can enforce deadlines across a whole request stream.

The model is a single-server queue on the database's simulated clock.
Every request is a :class:`Ticket` walking one lifecycle (:data:`LIFECYCLE`;
``docs/architecture.md`` has the table), and
:meth:`QueryServer._transition` is the only code that moves a ticket along
it, banks its accounting, builds its outcome, or emits a lifecycle event:

* **Arrival.** Each request's absolute deadline is fixed at
  ``arrival + quota``. The admission controller prices the cheapest useful
  stage with the server's *shared, continuously calibrated* cost model
  (:func:`~repro.server.admission.minimum_stage_cost`) and projects the
  queue wait in front of the request; the pluggable policy then admits,
  degrades (zero-sampling prestored answer), or rejects.
* **Queueing.** The run queue is earliest-deadline-first within priority
  tiers. Queue wait is charged against each request's budget simply by the
  clock moving: budgets are measured from the absolute deadline, so a
  request that waits has less time to sample — exactly the paper's
  time-quota semantics applied at the queue.
* **Overload shedding.** Before each dispatch the queue is walked in EDF
  order accumulating planned spend; requests whose projected budget cannot
  cover their minimum stage are shed — necessarily the latest-deadline
  work, which under EDF overload is the right work to drop.
* **Execution.** The winner runs in a fresh
  :class:`~repro.core.session.QuerySession` under ``HardDeadline`` with
  live mid-stage interrupt semantics (``measure_overspend=False``), on the
  shared clock and shared cost model. The answer is whatever the last
  completed stage estimated.
* **Preemption** (``preempt=True``, default off). With the switch on,
  the runner is checkpointed at stage boundaries: arrivals the run has
  clocked past are admitted mid-flight, and when a strictly-earlier-
  deadline ticket is waiting while the runner still has slack
  (:func:`~repro.server.preempt.should_preempt`), the run suspends —
  plan snapshot, estimator state, and consumed budget park on its ticket
  — and is resumed bit-identically when it wins the queue again. Off is
  byte-identical to run-to-completion serving (invariant 11).

The server *never* raises to the submitting client and never drops a
request silently: every request ends in exactly one typed
:class:`~repro.server.request.RequestOutcome`, and every decision is
emitted as a trace event (:mod:`repro.server.events`).
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import heapq
import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable

from repro.catalog.catalog import relation_fingerprint
from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.core.result import QueryResult
from repro.core.session import QuerySession
from repro.costmodel.model import CostModel
from repro.errors import ReproError, StorageError
from repro.estimation.estimate import Estimate
from repro.observability.trace import TeeSink, TraceSink
from repro.server.admission import (
    AdmissionAction,
    AdmissionDecision,
    AdmissionPolicy,
    FeasibilityReport,
    RejectInfeasible,
    minimum_stage_cost,
    projected_wait,
)
from repro.server.degrade import degraded_estimate, synopsis_degraded_estimate
from repro.server.events import (
    AdmissionDecided,
    QueryPreempted,
    QueryResumed,
    RequestArrived,
    RequestCompleted,
    RequestRetried,
    RequestStarted,
)
from repro.server.metrics import ServerMetrics
from repro.server.preempt import PreemptDecision, projected_handback, should_preempt
from repro.server.request import Outcome, QueryRequest, RequestOutcome
from repro.synopses.events import SynopsisRefreshed
from repro.timecontrol.stopping import HardDeadline
from repro.timecontrol.strategies import TimeControlStrategy, default_strategy
from repro.timekeeping.clock import SimulatedClock

OnComplete = Callable[[RequestOutcome], "QueryRequest | None"]

SERVER_OWNED_OPTIONS = frozenset(
    ("aggregate", "clock", "cost_model", "measure_overspend")
    + ("seed", "sink", "stopping", "strategy", "synopses")
)
"""``open_session`` keywords the server sets itself for every session it
opens (the request's identity, the shared timeline and cost model, the
hard-deadline run mode, its own ``synopses`` argument): ``session_kwargs``
may not carry them."""


class TicketState(enum.Enum):
    """Where a live request stands; it ends in its
    :class:`~repro.server.request.Outcome`, the terminal states."""

    ARRIVED = "arrived"
    QUEUED = "queued"
    RUNNING = "running"
    PARKED = "parked"


_S, _O = TicketState, Outcome
LIFECYCLE: dict[TicketState, frozenset[TicketState | Outcome]] = {
    _S.ARRIVED: frozenset({_S.QUEUED, _O.DEGRADED, _O.REJECTED, _O.UNCOVERED}),
    _S.QUEUED: frozenset({_S.RUNNING, _O.SHED, _O.MISSED}),
    _S.RUNNING: frozenset({_S.PARKED, _O.ANSWERED, _O.DEGRADED, _O.MISSED}),
    _S.PARKED: frozenset({_S.RUNNING}),
}
"""Every legal move. An :class:`Outcome` has no entry: nothing leaves a
terminal state. A parked ticket can only be resumed — never shed — because
its banked stages are work the clock already paid for."""


@dataclass(order=True)
class Ticket:
    """One request's walk through the lifecycle (heap-ordered when queued).

    Only the EDF key — ``(priority, deadline, seq)`` — participates in
    ordering. The payload fields are ``compare=False``: a key tie (same
    priority and deadline, e.g. a preempted ticket re-queued next to an
    equal-deadline arrival) must break on ``seq``, not fall through to
    comparing ``QueryRequest`` payloads and raising ``TypeError``.

    ``state`` and the accounting banked at first dispatch (``queue_wait``
    / ``started_at`` / ``budget``, so a resumed run reports what an
    uninterrupted one would have) are written by
    :meth:`QueryServer._transition` only.
    """

    priority: int
    deadline: float
    seq: int
    request: QueryRequest = field(default=None, compare=False)  # type: ignore[assignment]
    min_cost: float = field(default=0.0, compare=False)
    state: TicketState | Outcome = field(default=TicketState.ARRIVED, compare=False)
    queue_wait: float = field(default=0.0, compare=False)
    started_at: float | None = field(default=None, compare=False)
    budget: float = field(default=0.0, compare=False)
    # Run supervision: the session of the current attempt (checkpointed
    # while the ticket is parked), retries used so far, and — under
    # ``preempt=True`` — the suspension count and the pending decision.
    session: QuerySession | None = field(default=None, compare=False)
    attempt: int = field(default=0, compare=False)
    preemptions: int = field(default=0, compare=False)
    decision: PreemptDecision | None = field(default=None, compare=False)

    def planned_spend(self, now: float) -> float:
        """How long this ticket will occupy the server once dispatched.

        A time-constrained query consumes its remaining budget (that is the
        point of the paper), so the planned spend is the time between now
        and its deadline, capped at the offered quota.
        """
        return min(max(self.deadline - now, 0.0), self.request.quota)


_arrival_order = attrgetter("arrival", "priority")


class QueryServer:
    """Serves a stream of time-constrained queries over one database.

    Parameters
    ----------
    database:
        The database all requests run against. Must use simulated clocks
        (the server owns the timeline).
    policy:
        Admission policy (default :class:`RejectInfeasible`). Use
        :class:`~repro.server.admission.DegradeInfeasible` after
        :meth:`Database.analyze` for graceful degradation, or
        :class:`~repro.server.admission.AdmitAll` to switch admission
        control off (the benchmark baseline).
    strategy_factory:
        Builds the per-session time-control strategy (default
        :func:`~repro.timecontrol.strategies.default_strategy`).
    sink:
        Optional extra trace sink tee'd next to the built-in
        :class:`~repro.server.metrics.ServerMetrics`.
    trace_queries:
        Thread the server sink into each session too, interleaving
        per-stage query events with scheduling events on one stream.
    session_kwargs:
        Extra :class:`~repro.core.options.QueryOptions` fields for every
        session the server opens (``fault_plan``, ``max_stages``, …).
        Unknown names and the names the server sets itself
        (:data:`SERVER_OWNED_OPTIONS`) raise ``ValueError`` here rather
        than failing every request later.
    max_fault_retries:
        How many times a dispatched request defeated by transient
        (injected/storage) faults is re-executed within its own remaining
        budget (default 1; 0 disables retries). Retries that still fail
        fall back to the zero-sampling degraded answer when prestored
        statistics cover the query.
    retry_backoff:
        Simulated seconds charged to the request's own budget before each
        retry, scaled by the attempt number and capped at the remaining
        budget.
    synopses:
        Default off. When on, every session the server opens reads/feeds
        the database's synopsis catalog, degrade answers prefer recorded
        synopses, and the catalog's invalidation events join the server's
        trace stream. The one place to set it: ``session_kwargs`` may not.
    preempt:
        Default off. When on, dispatched queries may be suspended at stage
        boundaries in favour of strictly-earlier-deadline arrivals and
        resumed bit-identically later (see :mod:`repro.server.preempt`);
        when off the server is byte-identical to the run-to-completion
        scheduler. Both switches take ``True`` / ``False`` only.
    """

    def __init__(
        self,
        database: Database,
        policy: AdmissionPolicy | None = None,
        strategy_factory: Callable[[], TimeControlStrategy] | None = None,
        sink: TraceSink | None = None,
        trace_queries: bool = False,
        session_kwargs: dict | None = None,
        max_fault_retries: int = 1,
        retry_backoff: float = 0.05,
        synopses: bool = False,
        preempt: bool = False,
    ) -> None:
        if database.clock_kind != "simulated":
            raise ValueError(
                "QueryServer schedules on the simulated clock; "
                "construct the Database with clock='simulated'"
            )
        self.database = database
        self.policy = policy if policy is not None else RejectInfeasible()
        self.strategy_factory = strategy_factory or default_strategy
        self.clock = SimulatedClock()
        self.metrics = ServerMetrics()
        self.sink: TraceSink = (
            TeeSink([self.metrics, sink]) if sink is not None else self.metrics
        )
        # One cost model shared by every session: admission gets sharper
        # as the server executes queries and the model refits.
        self._cost_model: CostModel = database.default_cost_model()
        self.trace_queries = trace_queries
        self.session_kwargs = dict(session_kwargs or {})
        options = {f.name for f in dataclasses.fields(QueryOptions)}
        for name in self.session_kwargs:
            if name in SERVER_OWNED_OPTIONS:
                raise ValueError(
                    f"session_kwargs cannot set {name!r}: the server sets "
                    "it itself for every session it opens"
                )
            if name not in options:
                raise ValueError(
                    f"session_kwargs has unknown query option {name!r}; "
                    f"valid options: {', '.join(sorted(options))}"
                )
        if max_fault_retries < 0:
            raise ValueError(f"max_fault_retries cannot be negative: {max_fault_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff cannot be negative: {retry_backoff}")
        for name, value in (("synopses", synopses), ("preempt", preempt)):
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        self.max_fault_retries = max_fault_retries
        self.retry_backoff = retry_backoff
        self.synopses = synopses
        if self.synopses:
            self.database.synopses.sink = self.sink
        self.preempt = preempt
        self._seq = itertools.count()
        self._refresh_counter = itertools.count(1)
        self.outcomes: list[RequestOutcome] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def process(
        self,
        requests: Iterable[QueryRequest],
        on_complete: OnComplete | None = None,
    ) -> list[RequestOutcome]:
        """Serve ``requests`` (sorted by arrival) until the system drains.

        ``on_complete`` implements closed-loop clients: called with each
        terminal outcome, it may return a follow-up request (arrival no
        earlier than the current clock) to feed back into the stream.
        Returns this call's outcomes in decision order; they are also
        appended to :attr:`outcomes`.
        """
        arrivals: list[QueryRequest] = sorted(requests, key=_arrival_order)
        queue: list[Ticket] = []
        first = len(self.outcomes)

        def finish(outcome: RequestOutcome) -> None:
            self.outcomes.append(outcome)
            if on_complete is not None:
                follow = on_complete(outcome)
                if follow is not None:
                    bisect.insort(arrivals, follow, key=_arrival_order)

        def admit_due(running: Ticket | None = None) -> None:
            now = self.clock.now()
            while arrivals and arrivals[0].arrival <= now:
                self._on_arrival(arrivals.pop(0), queue, finish, running)

        def checkpoint(ticket: Ticket, report) -> bool:
            # The executor calls this *between* stages of the running
            # ticket. First any arrivals the run has clocked past are
            # admitted mid-flight (their deadlines are absolute, so the
            # wait they already suffered is charged by the clock alone);
            # then the slack-aware policy rules. ``True`` = suspend.
            admit_due(running=ticket)
            ticket.decision = should_preempt(ticket, queue, self.clock.now())
            return ticket.decision is not None

        while arrivals or queue:
            if not queue and arrivals:
                # Idle server: sleep until the next arrival.
                self.clock.advance_to(arrivals[0].arrival)
            admit_due()
            if not queue:
                continue
            for shed in self._shed_overload(queue):
                finish(shed)
            if not queue:
                continue
            ticket = heapq.heappop(queue)
            outcome = self._dispatch(
                ticket, partial(checkpoint, ticket) if self.preempt else None
            )
            if outcome is not None:
                finish(outcome)
            else:
                # The runner was preempted: it re-queues under its own
                # EDF key, the strictly-earlier challenger goes first,
                # and its terminal outcome comes from a later dispatch.
                heapq.heappush(queue, ticket)
        return self.outcomes[first:]

    def serve(self, request: QueryRequest) -> RequestOutcome:
        """Serve one request immediately (arrival = now); returns its outcome."""
        if request.arrival < self.clock.now():
            request = dataclasses.replace(request, arrival=self.clock.now())
        return self.process([request])[0]

    # ------------------------------------------------------------------
    # The ticket lifecycle
    # ------------------------------------------------------------------
    def _transition(
        self,
        ticket: Ticket,
        to: TicketState | Outcome,
        reason: str = "",
        result: QueryResult | None = None,
        estimate: Estimate | None = None,
    ) -> RequestOutcome | None:
        """Move ``ticket`` to state ``to`` — the one place a ticket changes.

        The legality check (:data:`LIFECYCLE`), the accounting banked on the
        ticket, the lifecycle event and, for a terminal state described by
        ``reason`` / ``result`` / ``estimate``, the returned
        :class:`RequestOutcome` all happen here and nowhere else.
        """
        origin, request, now = ticket.state, ticket.request, self.clock.now()
        if to not in LIFECYCLE.get(origin, ()):
            raise ReproError(
                f"illegal ticket transition {origin.value} → {to.value} "
                f"(request {request.request_id})"
            )
        ticket.state = to
        event = outcome = None
        if TicketState.PARKED in (origin, to):
            # Either side of a suspension: the EDF key (and ``seq``) survives
            # parking, the first-dispatch accounting survives resuming.
            boundary = dict(
                request_id=request.request_id,
                stages_completed=ticket.session.plan.stages_completed,
                residual_budget=max(ticket.deadline - now, 0.0),
                clock=now,
            )
            if to is TicketState.PARKED:
                ticket.preemptions += 1
                event = QueryPreempted(
                    challenger_id=ticket.decision.challenger_id, **boundary
                )
            else:
                event = QueryResumed(preemptions=ticket.preemptions, **boundary)
        elif to is TicketState.RUNNING:
            ticket.queue_wait = now - request.arrival
            ticket.started_at = now
            ticket.budget = ticket.deadline - now
            event = RequestStarted(
                request_id=request.request_id,
                queue_wait=ticket.queue_wait,
                budget=ticket.budget,
                clock=now,
            )
        elif isinstance(to, Outcome):
            # A ticket that never ran waited from arrival until now — but a
            # rejection, turned away at the door, reports no wait; an
            # instant (zero-sampling) answer at admission starts and ends now.
            admitted = origin is not TicketState.ARRIVED
            instant = not admitted and to is Outcome.DEGRADED
            if origin is not TicketState.RUNNING and to is not Outcome.REJECTED:
                ticket.queue_wait = now - request.arrival
            outcome = RequestOutcome(
                request=request,
                outcome=to,
                reason=reason,
                admitted=admitted,
                queue_wait=ticket.queue_wait,
                started_at=now if instant else ticket.started_at,
                finished_at=now if admitted or instant else None,
                result=result,
                estimate=estimate,
            )
            event = RequestCompleted(
                request_id=request.request_id,
                outcome=to.value,
                reason=reason,
                queue_wait=ticket.queue_wait,
                lateness=outcome.lateness,
                relative_ci_halfwidth=outcome.relative_ci_halfwidth,
                clock=now,
            )
        if event is not None:
            self.sink.emit(event)
        return outcome

    # ------------------------------------------------------------------
    # Arrival and admission
    # ------------------------------------------------------------------
    def _open_session(
        self, expr, quota: float, aggregate, seed: int | None, **options
    ) -> QuerySession:
        """A session on the server's clock, shared cost model and
        ``synopses`` setting."""
        return self.database.open_session(
            expr,
            quota=quota,
            aggregate=aggregate,
            seed=seed,
            cost_model=self._cost_model,
            clock=self.clock,
            synopses=self.synopses,
            **self.session_kwargs,
            **options,
        )

    def _minimum_cost(self, request: QueryRequest) -> float:
        """Price the cheapest useful stage with the calibrated cost model.

        ``Database.plan`` lowers the query as dispatch will, synopsis warm
        start included, but never runs: pricing is free on the timeline.
        """
        return minimum_stage_cost(
            self.database.plan(
                request.expr,
                aggregate=request.aggregate,
                cost_model=self._cost_model,
                synopses=self.synopses,
                **self.session_kwargs,
            )
        )

    def _on_arrival(
        self,
        request: QueryRequest,
        queue: list[Ticket],
        finish: Callable[[RequestOutcome], None],
        running: Ticket | None = None,
    ) -> None:
        now = self.clock.now()
        ticket = Ticket(
            priority=request.priority,
            deadline=request.deadline,
            seq=next(self._seq),
            request=request,
        )
        self.sink.emit(
            RequestArrived(
                request_id=request.request_id,
                client_id=request.client_id,
                quota=request.quota,
                deadline=ticket.deadline,
                priority=request.priority,
                clock=now,
            )
        )
        try:
            ticket.min_cost = self._minimum_cost(request)
        except Exception as exc:
            # A query the engine cannot even plan gets a typed rejection.
            feasibility = FeasibilityReport(0, 0, 0)
            decision = AdmissionDecision(
                AdmissionAction.REJECT, f"unplannable: {exc}"
            )
            reason = f"query cannot be planned: {exc}"
        else:
            feasibility = FeasibilityReport(
                min_stage_cost=ticket.min_cost,
                projected_wait=projected_wait(request, queue, now, running),
                budget_now=ticket.deadline - now,
            )
            decision = self.policy.decide(request, feasibility)
            reason = decision.reason
        self.sink.emit(
            AdmissionDecided(
                request_id=request.request_id,
                action=decision.action.value,
                reason=decision.reason,
                min_stage_cost=feasibility.min_stage_cost,
                projected_wait=feasibility.projected_wait,
                budget_at_start=feasibility.budget_at_start,
                clock=now,
            )
        )
        if decision.action is AdmissionAction.ADMIT:
            self._transition(ticket, TicketState.QUEUED)
            heapq.heappush(queue, ticket)
        elif decision.action is AdmissionAction.DEGRADE:
            finish(self._degrade(ticket, reason))
        else:
            finish(self._transition(ticket, Outcome.REJECTED, reason))

    # ------------------------------------------------------------------
    # Degraded answers
    # ------------------------------------------------------------------
    def _zero_sampling_estimate(self, request: QueryRequest):
        """Best instant answer: synopsis first, prestored statistics next.

        Returns ``(estimate, source)``; ``(None, None)`` when neither
        source covers the query.
        """
        if self.synopses:
            estimate = synopsis_degraded_estimate(
                self.database,
                request.expr,
                aggregate=request.aggregate,
                sink=self.sink,
            )
            if estimate is not None:
                return estimate, "synopsis"
        estimate = degraded_estimate(
            self.database, request.expr, aggregate=request.aggregate
        )
        if estimate is not None:
            return estimate, "prestored statistics"
        return None, None

    def _degrade(self, ticket: Ticket, reason: str) -> RequestOutcome:
        estimate, source = self._zero_sampling_estimate(ticket.request)
        if estimate is None:
            # The policy chose degradation but no instant answer exists —
            # a coverage gap, reported as its own terminal state rather
            # than masquerading as an ordinary rejection.
            return self._transition(
                ticket,
                Outcome.UNCOVERED,
                reason
                + " — but neither the synopsis catalog nor prestored "
                "statistics cover this query (run it once with synopses "
                "on, or run Database.analyze())",
            )
        return self._transition(
            ticket,
            Outcome.DEGRADED,
            f"{reason} ({source} answer)",
            estimate=estimate,
        )

    # ------------------------------------------------------------------
    # Idle-capacity synopsis refresh
    # ------------------------------------------------------------------
    def refresh_synopses(self, budget: float) -> int:
        """Re-derive invalidated answer synopses within a time budget.

        Each :class:`~repro.synopses.events.SynopsisInvalidated` mutation
        queues the dropped answers for refresh; an operator (or an idle
        loop) grants the server ``budget`` simulated seconds and the server
        re-runs queued shapes as ordinary time-constrained sessions *on its
        own clock* — refresh time is real capacity spent, charged exactly
        like served requests, never free. Maintenance work carries no
        client deadline, so refresh runs use soft-deadline semantics
        (``measure_overspend=True``): an overrunning final stage is allowed
        to finish — its time still charged — rather than killed with
        nothing to show, and the overrun estimate is deposited. Runs until
        the queue drains or the budget is spent; a run that still produced
        no estimate (faults ate it) is re-queued, not lost. Returns how
        many entries were refreshed. No-op unless the server was built
        with synopses on.
        """
        refreshed = 0
        while (
            self.synopses
            and budget > 0
            and (entry := self.database.synopses.pop_refresh()) is not None
        ):
            started = self.clock.now()
            quota = budget
            session = self._open_session(
                entry.expr,
                quota,
                entry.aggregate,
                seed=next(self._refresh_counter),
                strategy=self.strategy_factory(),
                stopping=HardDeadline(),
                measure_overspend=True,
            )
            report = session.run().report
            budget -= self.clock.now() - started
            estimate = report.estimate or report.estimate_with_overrun
            if estimate is None:
                # Not even the overspend estimate survived (faults ate
                # the run). Put the entry back for the next idle grant
                # instead of silently losing it, and stop burning this
                # one.
                self.database.synopses.requeue_refresh(entry)
                break
            blocks = sum(stage.blocks_read for stage in report.stages)
            if report.estimate is None:
                # Only the overrun stage produced an answer, so the
                # session's binder had nothing to absorb — deposit it
                # here.
                relations = sorted(set(entry.expr.base_relations()))
                self.database.synopses.record_answer(
                    entry.expr,
                    entry.aggregate,
                    relation_fingerprint(self.database.catalog, relations),
                    estimate,
                    blocks=blocks,
                )
            refreshed += 1
            self.sink.emit(
                SynopsisRefreshed(
                    key=entry.expr.structural_hash()[:16],
                    aggregate=entry.aggregate.kind,
                    quota=quota,
                    blocks=blocks,
                    clock=self.clock.now(),
                )
            )
        return refreshed

    # ------------------------------------------------------------------
    # Overload shedding
    # ------------------------------------------------------------------
    def _shed_overload(self, queue: list[Ticket]) -> list[RequestOutcome]:
        """Shed queued work that can no longer get a useful budget.

        Walk the queue in dispatch (EDF) order accumulating planned spend;
        a ticket whose projected budget at its turn is below its minimum
        stage cost would reach the server only to return nothing — it is
        shed now, freeing its spend for the rest. Later-deadline work is
        the work that fails this test first, so overload sheds from the
        tail, as a real-time scheduler should. Only policies that enforce
        feasibility shed; :class:`AdmitAll` keeps the doomed work queued.
        """
        if not self.policy.enforce_at_dispatch or not queue:
            return []
        keep: list[Ticket] = []
        shed: list[RequestOutcome] = []
        projected = self.clock.now()
        for ticket in sorted(queue):
            budget_at_turn = ticket.deadline - projected
            # A parked (preempted) ticket has banked stages and a live
            # estimate; shedding it would discard work the clock already
            # paid for. It keeps its slot — resume finalizes it even with
            # no budget left — and its residual spend stays in the
            # projection for the tickets behind it.
            if (
                ticket.state is TicketState.PARKED
                or budget_at_turn >= ticket.min_cost
            ):
                keep.append(ticket)
                projected = projected_handback([ticket], projected)
            else:
                shed.append(
                    self._transition(
                        ticket,
                        Outcome.SHED,
                        f"overload: projected budget {budget_at_turn:.3f}s at "
                        f"dispatch < minimum stage cost {ticket.min_cost:.3f}s",
                    )
                )
        if shed:
            queue[:] = keep  # sorted, so a valid heap as it stands
        return shed

    # ------------------------------------------------------------------
    # Dispatch: start → attempts → classify
    # ------------------------------------------------------------------
    def _dispatch(
        self, ticket: Ticket, checkpoint: Callable | None
    ) -> RequestOutcome | None:
        """Run the queue's winner; ``None`` when it parked instead."""
        if ticket.state is TicketState.QUEUED:
            # Start: the budget check. (A parked ticket skips it and is
            # resumed always — even with the deadline past, the executor
            # finalizes the banked estimate instead of discarding
            # paid-for work.)
            request, now = ticket.request, self.clock.now()
            budget = ticket.deadline - now
            enforce = self.policy.enforce_at_dispatch
            if budget <= 0 or (enforce and budget < ticket.min_cost):
                return self._transition(
                    ticket,
                    Outcome.SHED if enforce else Outcome.MISSED,
                    f"budget exhausted in queue: {budget:.3f}s left of "
                    f"{request.quota:g}s quota after "
                    f"{now - request.arrival:.3f}s wait",
                )
            self._transition(ticket, TicketState.RUNNING)
        result, failure = self._run_attempts(ticket, checkpoint)
        if ticket.state is TicketState.PARKED:
            return None
        return self._classify(ticket, result, failure)

    def _run_attempts(self, ticket: Ticket, checkpoint: Callable | None):
        """Run (or resume) the ticket until it answers, parks or gives up.

        Returns ``(result, failure)`` of the last attempt: a
        :class:`QueryResult` or ``None``, and the escaped exception's text
        or ``None``. When the checkpoint accepts a preemption the ticket
        is left ``PARKED`` and both are ``None``.
        """
        request = ticket.request
        result = failure = None
        while True:
            resuming = ticket.state is TicketState.PARKED
            if resuming:
                self._transition(ticket, TicketState.RUNNING)
            else:
                remaining = ticket.deadline - self.clock.now()
                attempt_quota = min(max(remaining, 0.0), ticket.budget)
                if attempt_quota <= 0:
                    break
            result = failure = None
            transient: str | None = None  # why a retry is warranted, if one is
            try:
                if resuming:
                    result = ticket.session.resume(checkpoint=checkpoint)
                else:
                    ticket.session = self._open_session(
                        request.expr,
                        attempt_quota,
                        request.aggregate,
                        seed=self._retry_seed(request.seed, ticket.attempt),
                        strategy=self.strategy_factory(),
                        stopping=HardDeadline(),
                        measure_overspend=False,
                        sink=self.sink if self.trace_queries else None,
                    )
                    result = ticket.session.run(checkpoint=checkpoint)
            except StorageError as exc:
                # A fault that escaped salvage (no injector armed, or a real
                # storage failure) is worth one deterministic re-execution.
                failure = transient = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # the scheduler never raises to the caller
                failure = f"{type(exc).__name__}: {exc}"
            if result is not None:
                if result.estimate is not None:
                    break
                # A run that produced nothing *because faults ate it* is
                # transient; an undisturbed empty run is a genuine miss.
                if result.faulted:
                    transient = f"{len(result.faults)} fault(s), no estimate"
            elif failure is None:
                # The run suspended at the checkpoint instead of finishing.
                self._transition(ticket, TicketState.PARKED)
                break
            if transient is None or not self._back_off(ticket, transient):
                break
        return result, failure

    def _back_off(self, ticket: Ticket, reason: str) -> bool:
        """Charge the pause before a retry; ``False`` if none can follow.

        The backoff is simulated time on the request's own budget, scaled
        by the attempt number and capped at what is left.
        """
        if ticket.attempt >= self.max_fault_retries:
            return False
        remaining = ticket.deadline - self.clock.now()
        backoff = min(
            self.retry_backoff * (ticket.attempt + 1), max(remaining, 0.0)
        )
        if remaining - backoff <= 0:
            # The backoff would eat everything that is left: no retry
            # could run afterwards, so charging it (and emitting a
            # RequestRetried that promises an attempt) would be pure
            # waste. Terminal classification proceeds from this
            # attempt's evidence.
            return False
        ticket.attempt += 1
        self.sink.emit(
            RequestRetried(
                request_id=ticket.request.request_id,
                attempt=ticket.attempt,
                reason=reason,
                backoff_seconds=backoff,
                clock=self.clock.now(),
            )
        )
        if backoff > 0:
            self.clock.advance(backoff)
        return True

    def _classify(
        self, ticket: Ticket, result: QueryResult | None, failure: str | None
    ) -> RequestOutcome:
        """Result-or-failure of the last attempt → the terminal outcome.

        A run eaten by a crash and a run eaten by faults deserve the same
        thing: the zero-sampling answer when coverage exists, ``MISSED``
        when it does not. An undisturbed run that simply completed no
        stage is a genuine miss and gets no fallback.
        """
        if result is not None and result.estimate is not None:
            return self._transition(
                ticket,
                Outcome.ANSWERED,
                f"{result.stages} stages, {result.blocks} blocks within "
                f"budget {ticket.budget:.3f}s "
                f"(termination: {result.termination})",
                result=result,
            )
        fallback = source = None
        if failure is not None or (result is not None and result.faulted):
            fallback, source = self._zero_sampling_estimate(ticket.request)
        if fallback is not None:
            cause = (
                f"execution failed ({failure})"
                if failure is not None
                else f"faults defeated {ticket.attempt + 1} attempt(s)"
            )
            return self._transition(
                ticket,
                Outcome.DEGRADED,
                f"{cause}; zero-sampling {source} answer",
                result=result,
                estimate=fallback,
            )
        if failure is not None:
            reason = f"execution failed: {failure}"
        else:
            termination = result.termination if result is not None else "unrun"
            reason = (
                "no stage completed within the remaining budget "
                f"({ticket.budget:.3f}s; termination: {termination})"
            )
        return self._transition(
            ticket, Outcome.MISSED, reason, result=result
        )

    @staticmethod
    def _retry_seed(seed: int | None, attempt: int) -> int | None:
        """Deterministic per-attempt seed: replayable, but not a verbatim
        re-run (a retry with the identical stream would hit the identical
        injected fault)."""
        if seed is None or attempt == 0:
            return seed
        return (seed + 0x9E3779B1 * attempt) & 0xFFFFFFFF
