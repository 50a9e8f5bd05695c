"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Timing-related control flow (the hard-deadline "timer
interrupt" of the paper) uses :class:`QuotaExpired`, which intentionally does
*not* derive from :class:`ReproError`: it is a control signal raised by the
clock substrate, not a programming or data error, and must never be swallowed
by broad ``except ReproError`` handlers inside operators.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every instance carries optional *run context*: the staged-execution
    ``stage`` the error surfaced in and a free-form ``session`` label.
    Layers that know the context attach it with :meth:`with_context` as the
    error propagates, so a fault that does reach user code names where in
    the run it happened instead of arriving bare.
    """

    stage: int | None = None
    session: str | None = None

    def with_context(
        self, stage: int | None = None, session: str | None = None
    ) -> "ReproError":
        """Attach run context (idempotent: first writer wins); returns self."""
        if stage is not None and self.stage is None:
            self.stage = stage
        if session is not None and self.session is None:
            self.session = session
        return self

    def context_suffix(self) -> str:
        """`` (stage N, session S)``-style suffix for messages, or ``""``."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        if self.session is not None:
            parts.append(f"session {self.session}")
        return f" ({', '.join(parts)})" if parts else ""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible."""


class CatalogError(ReproError):
    """A relation name is unknown or already registered."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (bad block id, overfull block).

    Carries the structured location of the failure — ``relation`` and
    ``block_id`` — so handlers (and the fault-salvage machinery) can log
    and retry without parsing the message.
    """

    def __init__(
        self,
        message: str,
        relation: str | None = None,
        block_id: int | None = None,
        stage: int | None = None,
    ) -> None:
        super().__init__(message)
        self.relation = relation
        self.block_id = block_id
        if stage is not None:
            self.stage = stage


class InjectedFault(StorageError):
    """A deterministic fault injected by :mod:`repro.faults`.

    A :class:`StorageError` subclass so production salvage paths treat it
    exactly like a real storage hiccup; ``fault_kind`` names the injected
    failure mode (``"read_error"``) for assertions and traces.
    """

    def __init__(
        self,
        message: str,
        fault_kind: str = "read_error",
        relation: str | None = None,
        block_id: int | None = None,
        stage: int | None = None,
    ) -> None:
        super().__init__(
            message, relation=relation, block_id=block_id, stage=stage
        )
        self.fault_kind = fault_kind


class ExpressionError(ReproError):
    """A relational-algebra expression is malformed for the requested use."""


class EstimationError(ReproError):
    """An estimator was asked for a quantity it cannot produce."""


class CostModelError(ReproError):
    """A time-cost formula was evaluated with inconsistent inputs."""


class TimeControlError(ReproError):
    """A time-control strategy or the staged executor was misconfigured."""


class SamplingExhausted(ReproError):
    """A sampling plan was asked for more units than remain unsampled."""


class CellRunError(ReproError):
    """One run of a ``run_cell`` batch failed.

    Raised in place of the bare exception so a 200-run cell names the
    exact seed and cell that died; the original exception is chained as
    ``__cause__``.
    """

    def __init__(self, seed: int, message: str) -> None:
        super().__init__(message)
        self.seed = seed


class QuotaExpired(Exception):
    """The hard time quota was crossed (the paper's timer interrupt).

    Raised by :class:`repro.timekeeping.CostCharger` when a charge would move
    the simulated (or wall) clock past an armed deadline and the charger is in
    ``abort`` mode. The staged executor catches it at the stage boundary and
    discards the aborted stage, mirroring the hard-time-constraint semantics
    of Section 3.2 of the paper.
    """

    def __init__(self, deadline: float, now: float) -> None:
        super().__init__(
            f"time quota expired: deadline={deadline:.6f}s, clock={now:.6f}s"
        )
        self.deadline = deadline
        self.now = now
