"""Transaction-level quota budgeting — the paper's real-time motivation.

Section 1: "Another use of our approach is in multiuser, realtime databases.
By precisely fixing the execution times of database queries in a
transaction, accurate estimates for transaction execution times become
possible. This in turn plays an important role in minimizing the number of
transactions that miss their deadlines [AbMo 88]."

This module builds that layer on top of the per-query controller: a
*transaction* is a sequence of aggregate queries sharing one deadline, and a
:class:`QuotaAllocator` splits the deadline into per-query quotas. Because
each query's execution time is pinned to its quota (that is the whole point
of the paper), the transaction's completion time becomes predictable and the
scheduler can enforce its deadline:

* :class:`ProportionalAllocator` — split the whole budget up front by
  weight; simple, but time a query leaves unused is lost.
* :class:`FeedbackAllocator` — re-split the *remaining* budget before each
  query, so early finishers (e.g. error-constrained stops) donate their
  leftover to the queries still to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.core.result import QueryResult
from repro.errors import TimeControlError
from repro.estimation.aggregates import COUNT, AggregateSpec
from repro.relational.expression import Expression
from repro.server.request import Outcome, QueryRequest
from repro.server.scheduler import QueryServer


@dataclass(frozen=True)
class QueryTask:
    """One aggregate query inside a transaction."""

    name: str
    expr: Expression
    aggregate: AggregateSpec = COUNT
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TimeControlError("query task needs a name")
        if self.weight <= 0:
            raise TimeControlError(
                f"task {self.name!r}: weight must be positive"
            )


@dataclass(frozen=True)
class WriteTask:
    """One committed append inside a transaction.

    Executes as :meth:`repro.core.database.Database.append_rows` — the
    write itself is uncharged on the simulated clock (like bulk ``load``;
    the paper budgets *query* time, not maintenance I/O), but its commit
    has teeth: it invalidates the plan cache entries, prestored statistics,
    and synopsis-catalog entries derived from the old contents, so every
    later query in this or any other transaction sees consistent derived
    state. ``weight`` is fixed at 0 so quota allocators never grant
    sampling budget to a write.
    """

    name: str
    relation: str
    rows: tuple = ()
    weight: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise TimeControlError("write task needs a name")
        if not self.relation:
            raise TimeControlError(f"task {self.name!r}: needs a relation")
        object.__setattr__(
            self, "rows", tuple(tuple(row) for row in self.rows)
        )


class QuotaAllocator:
    """Splits a transaction's time budget into per-query quotas."""

    def allocate(
        self, tasks: Sequence[QueryTask], index: int, remaining: float
    ) -> float:
        """Quota for ``tasks[index]`` given ``remaining`` seconds."""
        raise NotImplementedError


class ProportionalAllocator(QuotaAllocator):
    """Static weight-proportional split of the *initial* budget.

    The allocator is handed the remaining time but sizes each query by its
    share of the total weight — leftover time from early finishers is not
    redistributed (the baseline the feedback allocator improves on). The
    budget split is the one remaining at a transaction's first query, so
    one allocator serves any number of transactions.
    """

    def __init__(self) -> None:
        self._initial: float | None = None

    def allocate(
        self, tasks: Sequence[QueryTask], index: int, remaining: float
    ) -> float:
        # No query before this one (writes weigh 0): a new transaction.
        if self._initial is None or not any(t.weight for t in tasks[:index]):
            self._initial = remaining
        total_weight = sum(t.weight for t in tasks)
        return self._initial * tasks[index].weight / total_weight


class FeedbackAllocator(QuotaAllocator):
    """Re-split the remaining budget before each query (rolls leftover
    forward), keeping weight proportions among the queries still to run."""

    def allocate(
        self, tasks: Sequence[QueryTask], index: int, remaining: float
    ) -> float:
        pending_weight = sum(t.weight for t in tasks[index:])
        return remaining * tasks[index].weight / pending_weight


@dataclass
class TransactionResult:
    """Outcome of one deadline-bound transaction."""

    deadline: float
    results: dict[str, QueryResult] = field(default_factory=dict)
    quotas: dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0
    aborted_after: str | None = None

    @property
    def met_deadline(self) -> bool:
        return self.aborted_after is None and self.elapsed <= self.deadline

    @property
    def completed_queries(self) -> int:
        return len(self.results)

    def summary(self) -> str:
        status = "MET" if self.met_deadline else "MISSED"
        return (
            f"transaction {status} deadline {self.deadline:g}s "
            f"(elapsed {self.elapsed:.3f}s, "
            f"{self.completed_queries} queries)"
        )


def _run(
    database: Database,
    tasks: Sequence[QueryTask | WriteTask],
    deadline: float,
    allocator: QuotaAllocator,
    min_query_quota: float,
    run_query: Callable[[QueryTask, int, float], tuple[QueryResult | None, bool]],
    clock: Callable[[], float],
) -> TransactionResult:
    """The transaction loop both entry points share.

    Tasks run in order. A write commits through ``database``; a query is
    granted ``allocator``'s share of what remains of ``deadline`` on
    ``clock`` (clamped to it) and aborts the transaction when the grant
    falls below ``min_query_quota`` — a real-time scheduler killing a
    transaction that can no longer meet its deadline. ``run_query(task,
    index, quota)`` returns ``(result, answered)``; a query that is not
    answered, or that exhausts the deadline before the last task, aborts
    the transaction too.
    """
    if deadline <= 0:
        raise TimeControlError(f"deadline must be positive: {deadline}")
    if not any(isinstance(t, QueryTask) for t in tasks):
        raise TimeControlError("transaction needs at least one query")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise TimeControlError(f"duplicate task names in {names}")
    start = clock()
    outcome = TransactionResult(deadline=deadline)
    for index, task in enumerate(tasks):
        if isinstance(task, WriteTask):
            # Committed write: uncharged on the clock, but its commit
            # invalidates plan-cache / statistics / synopsis state.
            database.append_rows(task.relation, task.rows)
            continue
        remaining = deadline - (clock() - start)
        quota = min(allocator.allocate(tasks, index, remaining), remaining)
        if quota < min_query_quota:
            outcome.aborted_after = task.name
            break
        result, answered = run_query(task, index, quota)
        outcome.quotas[task.name] = quota
        if result is not None:
            outcome.results[task.name] = result
        outcome.elapsed = clock() - start
        if not answered or (
            outcome.elapsed >= deadline and index < len(tasks) - 1
        ):
            outcome.aborted_after = task.name
            break
    else:
        outcome.elapsed = clock() - start
    return outcome


class TransactionScheduler:
    """Runs query batches under one deadline with budgeted quotas."""

    def __init__(
        self,
        database: Database,
        allocator: QuotaAllocator | None = None,
        options: QueryOptions | None = None,
        min_query_quota: float = 1e-6,
    ) -> None:
        self.database = database
        self.allocator = allocator if allocator is not None else FeedbackAllocator()
        self.options = options
        self.min_query_quota = min_query_quota

    def run(
        self,
        tasks: Sequence[QueryTask],
        deadline: float,
        seed: int | None = None,
        **estimate_kwargs,
    ) -> TransactionResult:
        """Execute ``tasks`` in order within ``deadline`` seconds total.

        Each query consumes the simulated time its run actually charged (its
        completed stages, any overspend, and the stage attempts a fault
        wasted), not its nominal quota, so leftover time is visible to the
        allocator. If the budget for a query falls below
        ``min_query_quota`` the transaction aborts.
        """
        consumed = 0.0

        def run_query(task: QueryTask, index: int, quota: float):
            nonlocal consumed
            result = self.database.estimate(
                task.expr,
                task.aggregate,
                quota=quota,
                seed=None if seed is None else seed + index,
                options=self.options,
                **estimate_kwargs,
            )
            report = result.report
            consumed += sum(s.duration for s in report.stages) + report.wasted_seconds
            return result, True

        return _run(
            self.database, tasks, deadline, self.allocator,
            self.min_query_quota, run_query, lambda: consumed,
        )


def run_transaction(
    server: QueryServer,
    tasks: Sequence[QueryTask],
    deadline: float,
    allocator: QuotaAllocator | None = None,
    client_id: str = "txn",
    seed: int | None = None,
    min_query_quota: float = 1e-6,
) -> TransactionResult:
    """Run one deadline-bound transaction through the serving layer.

    ``deadline`` is the transaction's total budget in seconds from now (on
    the server clock). Each query becomes a
    :class:`~repro.server.request.QueryRequest` whose quota is the
    allocator's grant, so it flows through the server's admission,
    shedding and metrics: its outcome lands in ``server.outcomes``, and a
    query the server rejects, degrades or sheds aborts the transaction at
    that task (its name in ``aborted_after``), because a transaction
    missing one answer has missed its deadline contract. Returns the same
    :class:`TransactionResult` shape as :meth:`TransactionScheduler.run`.
    """
    allocator = allocator if allocator is not None else FeedbackAllocator()

    def run_query(task: QueryTask, index: int, quota: float):
        served = server.serve(
            QueryRequest(
                expr=task.expr,
                quota=quota,
                client_id=client_id,
                aggregate=task.aggregate,
                arrival=server.clock.now(),
                seed=None if seed is None else seed + index,
            )
        )
        return served.result, served.outcome is Outcome.ANSWERED

    return _run(
        server.database, tasks, deadline, allocator, min_query_quota,
        run_query, server.clock.now,
    )
