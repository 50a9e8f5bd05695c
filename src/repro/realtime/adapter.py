"""Transactions as server requests — one deadline, one quota layer.

:mod:`repro.realtime` splits a transaction's deadline into per-query quotas
with a :class:`~repro.realtime.transaction.QuotaAllocator`;
:mod:`repro.server` schedules individual deadline-bearing requests. This
adapter expresses the former *through* the latter, so the two layers share
one execution path and cannot drift apart: each transaction query becomes a
:class:`~repro.server.request.QueryRequest` whose quota is whatever the
allocator grants out of the transaction's remaining budget on the server's
clock, and the familiar :class:`~repro.realtime.transaction.
TransactionResult` is assembled from the server outcomes.

Semantics mirror :class:`~repro.realtime.transaction.TransactionScheduler`:
queries run in order, each consumes the simulated time it actually took
(leftover rolls forward under :class:`FeedbackAllocator`), and the
transaction aborts when a query's granted quota falls below
``min_query_quota`` — except that here every query also flows through the
server's admission, shedding, and metrics machinery.
"""

from __future__ import annotations

from typing import Sequence

from repro.realtime.transaction import (
    FeedbackAllocator,
    QueryTask,
    QuotaAllocator,
    TransactionResult,
    WriteTask,
    check_transaction,
)
from repro.server.request import QueryRequest
from repro.server.scheduler import QueryServer


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
    the server clock). Returns the same :class:`TransactionResult` shape as
    :meth:`TransactionScheduler.run`; the per-request outcomes additionally
    land in ``server.outcomes`` and the server metrics, and queries the
    server rejects/degrades/sheds abort the transaction at that task (their
    name in ``aborted_after``), because a transaction missing one answer has
    missed its deadline contract.
    """
    check_transaction(tasks, deadline)
    allocator = allocator if allocator is not None else FeedbackAllocator()

    start = server.clock.now()
    outcome = TransactionResult(deadline=deadline)
    for index, task in enumerate(tasks):
        if isinstance(task, WriteTask):
            # Committed write: uncharged on the clock, but its commit
            # invalidates plan-cache / statistics / synopsis state.
            server.database.append_rows(task.relation, task.rows)
            continue
        elapsed = server.clock.now() - start
        remaining = deadline - elapsed
        quota = min(allocator.allocate(tasks, index, remaining), remaining)
        if quota < min_query_quota:
            outcome.aborted_after = task.name
            break
        request = QueryRequest(
            expr=task.expr,
            quota=quota,
            client_id=client_id,
            aggregate=task.aggregate,
            arrival=server.clock.now(),
            seed=None if seed is None else seed + index,
        )
        served = server.serve(request)
        outcome.quotas[task.name] = quota
        if served.result is not None:
            outcome.results[task.name] = served.result
        outcome.elapsed = server.clock.now() - start
        if served.outcome.value != "answered":
            outcome.aborted_after = task.name
            break
        if outcome.elapsed >= deadline and index < len(tasks) - 1:
            outcome.aborted_after = task.name
            break
    else:
        outcome.elapsed = server.clock.now() - start
    return outcome
