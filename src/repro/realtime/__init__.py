"""Transaction-level deadline budgeting (the paper's [AbMo 88] use case).

:class:`TransactionScheduler` runs a transaction's queries directly on a
database; :func:`run_transaction` routes them through the
:mod:`repro.server` serving layer — same allocators, same deadline, but
every query flows through admission control and the server metrics. Both
drive the one transaction loop in :mod:`repro.realtime.transaction`, and
differ only in how a query runs and which clock measures it.
"""

from repro.realtime.transaction import (
    FeedbackAllocator,
    ProportionalAllocator,
    QueryTask,
    QuotaAllocator,
    TransactionResult,
    TransactionScheduler,
    WriteTask,
    run_transaction,
)

__all__ = [
    "FeedbackAllocator",
    "ProportionalAllocator",
    "QueryTask",
    "QuotaAllocator",
    "TransactionResult",
    "TransactionScheduler",
    "WriteTask",
    "run_transaction",
]
