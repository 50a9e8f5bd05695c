"""The deadline-aware query server: admit → queue → run → outcome.

:class:`QueryServer` multiplexes many clients' deadline-bearing aggregate
queries over one :class:`~repro.core.database.Database` — the serving layer
the paper motivates in Section 1: once each query's execution time is
pinned to its quota, transaction completion times become predictable and a
scheduler can enforce deadlines across a whole request stream.

The model is a single-server queue on the database's simulated clock:

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
* **Preemption** (``REPRO_PREEMPT``, default off). With the switch on,
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

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ContextManager, Iterable, Sequence

from repro.core.database import Database
from repro.core.switches import resolve_switch
from repro.costmodel.model import CostModel
from repro.errors import StorageError
from repro.observability.trace import NULL_SINK, TeeSink, TraceSink
from repro.server.admission import (
    AdmissionAction,
    AdmissionPolicy,
    FeasibilityReport,
    RejectInfeasible,
    minimum_stage_cost,
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
from repro.server.preempt import PreemptDecision, should_preempt
from repro.server.request import Outcome, QueryRequest, RequestOutcome
from repro.storage.bufferpool import resolve_pool
from repro.synopses.catalog import relation_fingerprint
from repro.synopses.events import SynopsisRefreshed
from repro.timecontrol.stopping import HardDeadline
from repro.timecontrol.strategies import (
    OneAtATimeInterval,
    TimeControlStrategy,
)
from repro.timekeeping.clock import SimulatedClock

if TYPE_CHECKING:
    from repro.core.session import QuerySession

OnComplete = Callable[[RequestOutcome], "QueryRequest | None"]


@dataclass(order=True)
class _Ticket:
    """One admitted request waiting in the run queue (heap-ordered).

    Only the EDF key — ``(priority, deadline, seq)`` — participates in
    ordering. The payload fields are ``compare=False``: a key tie (same
    priority and deadline, e.g. a preempted ticket re-queued next to an
    equal-deadline arrival) must break on ``seq``, not fall through to
    comparing ``QueryRequest`` payloads and raising ``TypeError``.
    """

    priority: int
    deadline: float
    seq: int
    request: QueryRequest = field(default=None, compare=False)  # type: ignore[assignment]
    arrival: float = field(default=0.0, compare=False)
    min_cost: float = field(default=0.0, compare=False)
    # Suspension state — populated only while parked by a preemption
    # (REPRO_PREEMPT): the checkpointed session plus the accounting
    # banked at first dispatch, so the resumed run reports the same
    # queue_wait/started_at/budget an uninterrupted run would have.
    session: "QuerySession | None" = field(default=None, compare=False)
    attempt: int = field(default=0, compare=False)
    preemptions: int = field(default=0, compare=False)
    queue_wait: float = field(default=0.0, compare=False)
    started_at: float = field(default=0.0, compare=False)
    budget: float = field(default=0.0, compare=False)
    decision: "PreemptDecision | None" = field(default=None, compare=False)

    def planned_spend(self, now: float) -> float:
        """How long this ticket will occupy the server once dispatched.

        A time-constrained query consumes its remaining budget (that is the
        point of the paper), so the planned spend is the time between now
        and its deadline, capped at the offered quota.
        """
        return min(max(self.deadline - now, 0.0), self.request.quota)


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
        One-at-a-Time-Interval with the prototype's ``d_β = 24``).
    sink:
        Optional extra trace sink tee'd next to the built-in
        :class:`~repro.server.metrics.ServerMetrics`.
    trace_queries:
        Thread the server sink into each session too, interleaving
        per-stage query events with scheduling events on one stream.
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
    shard_parallelism:
        Effective shard-read overlap admission pricing assumes for
        partitioned relations (default 1 — no discount). A server whose
        sessions run with ``partitions=W`` workers sets this to ``W`` so
        the feasibility floor reflects the shorter wall-clock slot a
        sharded scan actually occupies; charged simulated costs are
        unaffected (invariant 10).
    preempt:
        ``None`` → honour ``REPRO_PREEMPT`` (default off). When on,
        dispatched queries may be suspended at stage boundaries in favour
        of strictly-earlier-deadline arrivals and resumed bit-identically
        later (see :mod:`repro.server.preempt`); when off the server is
        byte-identical to the run-to-completion scheduler.
    """

    def __init__(
        self,
        database: Database,
        policy: AdmissionPolicy | None = None,
        strategy_factory: Callable[[], TimeControlStrategy] | None = None,
        sink: TraceSink | None = None,
        share_cost_model: bool = True,
        trace_queries: bool = False,
        session_kwargs: dict | None = None,
        max_fault_retries: int = 1,
        retry_backoff: float = 0.05,
        synopses: bool | None = None,
        shard_parallelism: float = 1.0,
        preempt: bool | None = None,
    ) -> None:
        if database.clock_kind != "simulated":
            raise ValueError(
                "QueryServer schedules on the simulated clock; "
                "construct the Database with clock='simulated'"
            )
        self.database = database
        self.policy = policy if policy is not None else RejectInfeasible()
        self.strategy_factory = strategy_factory or (
            lambda: OneAtATimeInterval(d_beta=24.0)
        )
        self.clock = SimulatedClock()
        self.metrics = ServerMetrics()
        self.sink: TraceSink = (
            TeeSink([self.metrics, sink]) if sink is not None else self.metrics
        )
        self._cost_model: CostModel | None = (
            database.default_cost_model() if share_cost_model else None
        )
        self.trace_queries = trace_queries
        self.session_kwargs = dict(session_kwargs or {})
        if max_fault_retries < 0:
            raise ValueError(f"max_fault_retries cannot be negative: {max_fault_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff cannot be negative: {retry_backoff}")
        self.max_fault_retries = max_fault_retries
        self.retry_backoff = retry_backoff
        if shard_parallelism < 1.0:
            raise ValueError(
                f"shard_parallelism must be >= 1: {shard_parallelism}"
            )
        self.shard_parallelism = shard_parallelism
        # None → honour REPRO_SYNOPSES (default off). When on, every
        # session the server opens reads/feeds the database's synopsis
        # catalog, degrade answers prefer recorded synopses, and the
        # catalog's invalidation events join the server's trace stream.
        self.synopses = resolve_switch(synopses, "REPRO_SYNOPSES", default=False)
        if self.synopses:
            self.database.synopses.sink = self.sink
        # Every session the server opens shares one buffer pool — the
        # process-wide one unless ``session_kwargs`` attaches another —
        # so concurrent requests sampling the same relation hit each
        # other's decoded blocks, and, while *this* server is processing,
        # the pool's hit/miss/eviction events are routed onto the server's
        # metrics stream (never the per-session traces). Routing is scoped
        # per call rather than a permanent sink reassignment: the pool
        # outlives any one server, and a later server must not inherit a
        # torn-down sink.
        self._pool = resolve_pool(self.session_kwargs.get("bufferpool"))
        self.preempt = resolve_switch(preempt, "REPRO_PREEMPT", default=False)
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
        arrivals: list[QueryRequest] = sorted(
            requests, key=lambda r: (r.arrival, r.priority)
        )
        queue: list[_Ticket] = []
        produced: list[RequestOutcome] = []

        def finish(outcome: RequestOutcome) -> None:
            produced.append(outcome)
            self.outcomes.append(outcome)
            if on_complete is not None:
                follow = on_complete(outcome)
                if follow is not None:
                    self._insert_arrival(arrivals, follow)

        with self._pool_routing():
            while arrivals or queue:
                if not queue and arrivals:
                    # Idle server: sleep until the next arrival.
                    self.clock.advance_to(arrivals[0].arrival)
                now = self.clock.now()
                while arrivals and arrivals[0].arrival <= now:
                    self._on_arrival(arrivals.pop(0), queue, finish)
                if not queue:
                    continue
                for shed in self._shed_overload(queue):
                    finish(shed)
                if not queue:
                    continue
                ticket = heapq.heappop(queue)
                # None means the runner was preempted and re-queued —
                # its terminal outcome comes from a later dispatch.
                outcome = self._dispatch(ticket, queue, arrivals, finish)
                if outcome is not None:
                    finish(outcome)
        return produced

    def _pool_routing(self) -> ContextManager:
        """Scope the shared pool's events onto this server's sink.

        Buffer hits raised while this server runs requests land on *its*
        :class:`~repro.server.metrics.ServerMetrics`; outside the scope
        the pool falls back to its own sink, so two servers over one
        process-wide pool never see each other's counters (and a closed
        sink from a torn-down server can never poison a later one)."""
        return self._pool.route_events(self.sink)

    def serve(self, request: QueryRequest) -> RequestOutcome:
        """Serve one request immediately (arrival = now); returns its outcome."""
        if request.arrival < self.clock.now():
            request = QueryRequest(
                expr=request.expr,
                quota=request.quota,
                client_id=request.client_id,
                aggregate=request.aggregate,
                priority=request.priority,
                arrival=self.clock.now(),
                seed=request.seed,
                request_id=request.request_id,
            )
        return self.process([request])[0]

    # ------------------------------------------------------------------
    # Arrival and admission
    # ------------------------------------------------------------------
    @staticmethod
    def _insert_arrival(
        arrivals: list[QueryRequest], request: QueryRequest
    ) -> None:
        index = len(arrivals)
        for i, pending in enumerate(arrivals):
            if (pending.arrival, pending.priority) > (
                request.arrival,
                request.priority,
            ):
                index = i
                break
        arrivals.insert(index, request)

    def _session_overrides(self) -> dict:
        """Per-session keyword overrides: the synopses flag, then the
        caller's ``session_kwargs`` (which win on conflict)."""
        overrides = {"synopses": self.synopses}
        overrides.update(self.session_kwargs)
        return overrides

    def _minimum_cost(self, request: QueryRequest) -> float:
        """Price the cheapest useful stage with the calibrated cost model.

        The probe session is never run: construction charges nothing, so
        pricing is free on the server timeline. A fixed probe seed keeps
        the database's master seed sequence untouched (probe RNG streams
        are never drawn from). With synopses on, lowering the probe
        warm-starts its trackers from the catalog, so the price reflects
        the posterior selectivities the run would actually start from.
        """
        probe = self.database.open_session(
            request.expr,
            quota=request.quota,
            aggregate=request.aggregate,
            cost_model=self._cost_model,
            seed=0,
            clock=self.clock,
            **self._session_overrides(),
        )
        return minimum_stage_cost(
            probe, shard_parallelism=self.shard_parallelism
        )

    def _on_arrival(
        self,
        request: QueryRequest,
        queue: list[_Ticket],
        finish: Callable[[RequestOutcome], None],
        running: _Ticket | None = None,
    ) -> None:
        now = self.clock.now()
        deadline = request.deadline
        self.sink.emit(
            RequestArrived(
                request_id=request.request_id,
                client_id=request.client_id,
                quota=request.quota,
                deadline=deadline,
                priority=request.priority,
                clock=now,
            )
        )
        try:
            min_cost = self._minimum_cost(request)
        except Exception as exc:
            # A query the engine cannot even plan gets a typed rejection.
            self._decide_event(request, "reject", f"unplannable: {exc}", 0, 0, 0)
            finish(
                self._finish_unrun(
                    request,
                    Outcome.REJECTED,
                    f"query cannot be planned: {exc}",
                    queue_wait=0.0,
                )
            )
            return
        projected_wait = self._projected_wait(
            request, deadline, queue, now, running=running
        )
        feasibility = FeasibilityReport(
            min_stage_cost=min_cost,
            projected_wait=projected_wait,
            budget_now=deadline - now,
        )
        decision = self.policy.decide(request, feasibility)
        self._decide_event(
            request,
            decision.action.value,
            decision.reason,
            min_cost,
            projected_wait,
            feasibility.budget_at_start,
        )
        if decision.action is AdmissionAction.ADMIT:
            heapq.heappush(
                queue,
                _Ticket(
                    priority=request.priority,
                    deadline=deadline,
                    seq=next(self._seq),
                    request=request,
                    arrival=request.arrival,
                    min_cost=min_cost,
                ),
            )
            return
        if decision.action is AdmissionAction.DEGRADE:
            finish(self._degrade(request, decision.reason))
            return
        finish(
            self._finish_unrun(
                request, Outcome.REJECTED, decision.reason, queue_wait=0.0
            )
        )

    def _projected_wait(
        self,
        request: QueryRequest,
        deadline: float,
        queue: Sequence[_Ticket],
        now: float,
        running: _Ticket | None = None,
    ) -> float:
        """Expected queue delay: planned spend of work dispatched first.

        Spends accumulate in dispatch (EDF) order — each ticket's spend
        is priced at the clock position *its* turn would start, the same
        arithmetic :meth:`_shed_overload` uses. (Summing every spend at a
        fixed ``now`` instead, as this method once did, over-prices the
        queue: a later ticket's spend is capped by a deadline that has
        drifted closer by the time its turn comes, so admission
        over-estimated wait and over-rejected under load.)

        ``running`` is the mid-flight ticket when admission happens at a
        preemption checkpoint: it occupies the server ahead of this
        arrival unless the arrival's EDF key would preempt it.
        """
        key = (request.priority, deadline)
        projected = now
        if running is not None and (running.priority, running.deadline) <= key:
            projected += running.planned_spend(projected)
        ahead = sorted(
            ticket
            for ticket in queue
            if (ticket.priority, ticket.deadline) <= key
        )
        for ticket in ahead:
            projected += ticket.planned_spend(projected)
        return projected - now

    def _decide_event(
        self,
        request: QueryRequest,
        action: str,
        reason: str,
        min_cost: float,
        projected_wait: float,
        budget_at_start: float,
    ) -> None:
        self.sink.emit(
            AdmissionDecided(
                request_id=request.request_id,
                action=action,
                reason=reason,
                min_stage_cost=min_cost,
                projected_wait=projected_wait,
                budget_at_start=budget_at_start,
                clock=self.clock.now(),
            )
        )

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

    def _degrade(self, request: QueryRequest, reason: str) -> RequestOutcome:
        now = self.clock.now()
        estimate, source = self._zero_sampling_estimate(request)
        if estimate is None:
            # The policy chose degradation but no instant answer exists —
            # a coverage gap, reported as its own terminal state rather
            # than masquerading as an ordinary rejection.
            return self._finish_unrun(
                request,
                Outcome.UNCOVERED,
                reason
                + " — but neither the synopsis catalog nor prestored "
                "statistics cover this query (run it once with synopses "
                "on, or run Database.analyze())",
                queue_wait=now - request.arrival,
            )
        outcome = RequestOutcome(
            request=request,
            outcome=Outcome.DEGRADED,
            reason=f"{reason} ({source} answer)",
            admitted=False,
            queue_wait=now - request.arrival,
            started_at=now,
            finished_at=now,
            estimate=estimate,
        )
        self._completed_event(outcome)
        return outcome

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
        if not self.synopses or budget <= 0:
            return 0
        with self._pool_routing():
            return self._refresh_synopses(budget)

    def _refresh_synopses(self, budget: float) -> int:
        refreshed = 0
        while True:
            entry = self.database.synopses.pop_refresh()
            if entry is None:
                break
            started = self.clock.now()
            quota = budget
            session = self.database.open_session(
                entry.expr,
                quota=quota,
                strategy=self.strategy_factory(),
                stopping=HardDeadline(),
                measure_overspend=True,
                aggregate=entry.aggregate,
                cost_model=self._cost_model,
                seed=next(self._refresh_counter),
                clock=self.clock,
                **self._session_overrides(),
            )
            result = session.run()
            spent = self.clock.now() - started
            budget -= spent
            report = result.report
            estimate = report.estimate or report.estimate_with_overrun
            if estimate is None:
                # Not even the overspend estimate survived (faults ate the
                # run). Put the entry back for the next idle grant instead
                # of silently losing it, and stop burning this one.
                self.database.synopses.requeue_refresh(entry)
                break
            if report.estimate is None:
                # Only the overrun stage produced an answer, so the
                # session's binder had nothing to absorb — deposit it here.
                relations = sorted(set(entry.expr.base_relations()))
                self.database.synopses.record_answer(
                    entry.expr,
                    entry.aggregate,
                    relation_fingerprint(self.database.catalog, relations),
                    estimate,
                    blocks=sum(s.blocks_read for s in report.stages),
                )
            refreshed += 1
            self.sink.emit(
                SynopsisRefreshed(
                    key=entry.expr.structural_hash()[:16],
                    aggregate=entry.aggregate.kind,
                    quota=quota,
                    blocks=sum(s.blocks_read for s in report.stages),
                    clock=self.clock.now(),
                )
            )
            if budget <= 0:
                break
        return refreshed

    # ------------------------------------------------------------------
    # Overload shedding
    # ------------------------------------------------------------------
    def _shed_overload(self, queue: list[_Ticket]) -> list[RequestOutcome]:
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
        now = self.clock.now()
        shed: list[RequestOutcome] = []
        keep: list[_Ticket] = []
        projected = now
        for ticket in sorted(queue):
            if ticket.session is not None:
                # A parked (preempted) ticket has banked stages and a
                # live estimate; shedding it would discard work the clock
                # already paid for. It keeps its slot — resume finalizes
                # it even with no budget left — and its residual spend
                # stays in the projection for the tickets behind it.
                keep.append(ticket)
                projected += ticket.planned_spend(projected)
                continue
            budget_at_turn = ticket.deadline - projected
            if budget_at_turn < ticket.min_cost:
                shed.append(
                    self._finish_unrun(
                        ticket.request,
                        Outcome.SHED,
                        "overload: projected budget "
                        f"{budget_at_turn:.3f}s at dispatch < minimum stage "
                        f"cost {ticket.min_cost:.3f}s",
                        queue_wait=now - ticket.arrival,
                        admitted=True,
                    )
                )
            else:
                keep.append(ticket)
                projected += ticket.planned_spend(projected)
        if shed:
            queue[:] = keep
            heapq.heapify(queue)
        return shed

    # ------------------------------------------------------------------
    # Dispatch and execution
    # ------------------------------------------------------------------
    def _checkpoint_hook(
        self,
        ticket: _Ticket,
        queue: list[_Ticket],
        arrivals: list[QueryRequest],
        finish: Callable[[RequestOutcome], None],
    ) -> Callable:
        """Build the stage-boundary callback for one dispatched ticket.

        The executor calls it *between* stages. First any arrivals the run
        has clocked past are admitted mid-flight (their deadlines are
        absolute, so the wait they already suffered is charged by the
        clock alone); then the slack-aware policy rules. ``True`` tells
        the executor to suspend.
        """

        def checkpoint(report) -> bool:
            now = self.clock.now()
            while arrivals and arrivals[0].arrival <= now:
                self._on_arrival(
                    arrivals.pop(0), queue, finish, running=ticket
                )
            decision = should_preempt(ticket, queue, now)
            if decision is None:
                return False
            ticket.decision = decision
            return True

        return checkpoint

    def _park(
        self,
        ticket: _Ticket,
        session: "QuerySession",
        attempt: int,
        queue: list[_Ticket],
    ) -> None:
        """Stash the suspended session on its ticket and re-queue it.

        The ticket keeps its EDF key (and original ``seq``, so key ties
        still break by admission order); the challenger, whose key is
        strictly earlier, is dispatched first. Returns ``None`` — the
        ticket's terminal outcome comes from a later dispatch.
        """
        now = self.clock.now()
        ticket.session = session
        ticket.attempt = attempt
        ticket.preemptions += 1
        decision, ticket.decision = ticket.decision, None
        self.sink.emit(
            QueryPreempted(
                request_id=ticket.request.request_id,
                challenger_id=(
                    decision.challenger_id if decision is not None else ""
                ),
                stages_completed=session.plan.stages_completed,
                residual_budget=max(ticket.deadline - now, 0.0),
                clock=now,
            )
        )
        heapq.heappush(queue, ticket)
        return None

    def _dispatch(
        self,
        ticket: _Ticket,
        queue: list[_Ticket],
        arrivals: list[QueryRequest],
        finish: Callable[[RequestOutcome], None],
    ) -> RequestOutcome | None:
        request = ticket.request
        now = self.clock.now()
        if ticket.session is not None:
            # A parked run: admission, RequestStarted, and the budget
            # question were all settled at first dispatch. Resume always —
            # even with the deadline past, the executor finalizes the
            # banked estimate instead of discarding paid-for work.
            queue_wait = ticket.queue_wait
            started = ticket.started_at
            budget = ticket.budget
        else:
            queue_wait = now - ticket.arrival
            budget = ticket.deadline - now
            if budget <= 0 or (
                self.policy.enforce_at_dispatch and budget < ticket.min_cost
            ):
                outcome = (
                    Outcome.SHED
                    if self.policy.enforce_at_dispatch
                    else Outcome.MISSED
                )
                return self._finish_unrun(
                    request,
                    outcome,
                    f"budget exhausted in queue: {budget:.3f}s left of "
                    f"{request.quota:g}s quota after {queue_wait:.3f}s wait",
                    queue_wait=queue_wait,
                    admitted=True,
                )
            self.sink.emit(
                RequestStarted(
                    request_id=request.request_id,
                    queue_wait=queue_wait,
                    budget=budget,
                    clock=now,
                )
            )
            started = now
            ticket.queue_wait = queue_wait
            ticket.started_at = started
            ticket.budget = budget
        checkpoint = (
            self._checkpoint_hook(ticket, queue, arrivals, finish)
            if self.preempt
            else None
        )
        result = None
        failure: str | None = None
        attempt = ticket.attempt
        while True:
            session = None
            if ticket.session is not None:
                session, ticket.session = ticket.session, None
                self.sink.emit(
                    QueryResumed(
                        request_id=request.request_id,
                        stages_completed=session.plan.stages_completed,
                        residual_budget=max(
                            ticket.deadline - self.clock.now(), 0.0
                        ),
                        preemptions=ticket.preemptions,
                        clock=self.clock.now(),
                    )
                )
            else:
                remaining = ticket.deadline - self.clock.now()
                attempt_quota = min(max(remaining, 0.0), budget)
                if attempt_quota <= 0:
                    break
            result = None
            failure = None
            transient = False
            try:
                if session is not None:
                    out = session.resume(checkpoint=checkpoint)
                else:
                    session = self.database.open_session(
                        request.expr,
                        quota=attempt_quota,
                        strategy=self.strategy_factory(),
                        stopping=HardDeadline(),
                        measure_overspend=False,
                        aggregate=request.aggregate,
                        cost_model=self._cost_model,
                        seed=self._retry_seed(request.seed, attempt),
                        clock=self.clock,
                        sink=self.sink if self.trace_queries else None,
                        **self._session_overrides(),
                    )
                    out = session.run_preemptible(checkpoint=checkpoint)
                if out is None:
                    # The checkpoint accepted a preemption: park and hand
                    # the server to the earlier-deadline challenger.
                    return self._park(ticket, session, attempt, queue)
                result = out
            except StorageError as exc:
                # A fault that escaped salvage (no injector armed, or a real
                # storage failure) is worth one deterministic re-execution.
                failure = f"{type(exc).__name__}: {exc}"
                transient = True
            except Exception as exc:  # the scheduler never raises to the caller
                failure = f"{type(exc).__name__}: {exc}"
            if result is not None:
                if result.estimate is not None:
                    break
                # A run that produced nothing *because faults ate it* is
                # transient; an undisturbed empty run is a genuine miss.
                transient = result.faulted
            if not transient or attempt >= self.max_fault_retries:
                break
            remaining = ticket.deadline - self.clock.now()
            backoff = min(
                self.retry_backoff * (attempt + 1), max(remaining, 0.0)
            )
            if remaining - backoff <= 0:
                # The backoff would eat everything that is left: no retry
                # could run afterwards, so charging it (and emitting a
                # RequestRetried that promises an attempt) would be pure
                # waste. Terminal classification proceeds from this
                # attempt's evidence.
                break
            attempt += 1
            self.sink.emit(
                RequestRetried(
                    request_id=request.request_id,
                    attempt=attempt,
                    reason=(
                        failure
                        if failure is not None
                        else f"{len(result.faults)} fault(s), no estimate"
                    ),
                    backoff_seconds=backoff,
                    clock=self.clock.now(),
                )
            )
            if backoff > 0:
                self.clock.advance(backoff)
        finished = self.clock.now()
        if failure is not None:
            # Persistent failure: same zero-sampling fallback the faulted
            # branch below gets — a crash-eaten run and a fault-eaten run
            # deserve the same degraded answer when coverage exists.
            fallback, source = self._zero_sampling_estimate(request)
            if fallback is not None:
                outcome = RequestOutcome(
                    request=request,
                    outcome=Outcome.DEGRADED,
                    reason=(
                        f"execution failed ({failure}); "
                        f"zero-sampling {source} answer"
                    ),
                    admitted=True,
                    queue_wait=queue_wait,
                    started_at=started,
                    finished_at=finished,
                    estimate=fallback,
                )
            else:
                outcome = RequestOutcome(
                    request=request,
                    outcome=Outcome.MISSED,
                    reason=f"execution failed: {failure}",
                    admitted=True,
                    queue_wait=queue_wait,
                    started_at=started,
                    finished_at=finished,
                )
        elif result is None or result.estimate is None:
            fallback = source = None
            if result is not None and result.faulted:
                fallback, source = self._zero_sampling_estimate(request)
            if fallback is not None:
                outcome = RequestOutcome(
                    request=request,
                    outcome=Outcome.DEGRADED,
                    reason=(
                        f"faults defeated {attempt + 1} attempt(s); "
                        f"zero-sampling {source} answer"
                    ),
                    admitted=True,
                    queue_wait=queue_wait,
                    started_at=started,
                    finished_at=finished,
                    result=result,
                    estimate=fallback,
                )
            else:
                termination = (
                    result.termination if result is not None else "unrun"
                )
                outcome = RequestOutcome(
                    request=request,
                    outcome=Outcome.MISSED,
                    reason=(
                        "no stage completed within the remaining budget "
                        f"({budget:.3f}s; termination: {termination})"
                    ),
                    admitted=True,
                    queue_wait=queue_wait,
                    started_at=started,
                    finished_at=finished,
                    result=result,
                )
        else:
            outcome = RequestOutcome(
                request=request,
                outcome=Outcome.ANSWERED,
                reason=(
                    f"{result.stages} stages, {result.blocks} blocks within "
                    f"budget {budget:.3f}s (termination: {result.termination})"
                ),
                admitted=True,
                queue_wait=queue_wait,
                started_at=started,
                finished_at=finished,
                result=result,
            )
        self._completed_event(outcome)
        return outcome

    @staticmethod
    def _retry_seed(seed: int | None, attempt: int) -> int | None:
        """Deterministic per-attempt seed: replayable, but not a verbatim
        re-run (a retry with the identical stream would hit the identical
        injected fault)."""
        if seed is None or attempt == 0:
            return seed
        return (seed + 0x9E3779B1 * attempt) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # Terminal bookkeeping
    # ------------------------------------------------------------------
    def _finish_unrun(
        self,
        request: QueryRequest,
        outcome: Outcome,
        reason: str,
        queue_wait: float,
        admitted: bool = False,
    ) -> RequestOutcome:
        terminal = RequestOutcome(
            request=request,
            outcome=outcome,
            reason=reason,
            admitted=admitted,
            queue_wait=queue_wait,
            finished_at=self.clock.now() if admitted else None,
        )
        self._completed_event(terminal)
        return terminal

    def _completed_event(self, outcome: RequestOutcome) -> None:
        self.sink.emit(
            RequestCompleted(
                request_id=outcome.request.request_id,
                outcome=outcome.outcome.value,
                reason=outcome.reason,
                queue_wait=outcome.queue_wait,
                lateness=outcome.lateness,
                relative_ci_halfwidth=outcome.relative_ci_halfwidth,
                clock=self.clock.now(),
            )
        )
