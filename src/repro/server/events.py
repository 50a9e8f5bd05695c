"""Typed trace events of the serving layer.

Every scheduling decision the server takes is emitted through the existing
observability layer (:mod:`repro.observability`), so a server run is
replayable and auditable the same way a single query run is: the metrics
sink (:mod:`repro.server.metrics`) is just one consumer; a
:class:`~repro.observability.JsonlSink` tee'd next to it captures the whole
request stream for offline analysis, and :func:`~repro.observability.trace.
event_from_dict` rebuilds these events because they are registered with
:func:`~repro.observability.register_event_type`.

The lifecycle of one request reads as an event sequence::

    request_arrived → admission_decided → [request_started]
        → [request_retried …] → request_completed

``request_started`` only appears for requests that were admitted and
actually dispatched to a :class:`~repro.core.session.QuerySession`;
rejected, degraded, and shed requests jump straight to their
``request_completed`` terminal event (with the outcome naming why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.observability.trace import TraceEvent, register_event_type


@register_event_type
@dataclass(frozen=True)
class RequestArrived(TraceEvent):
    """A deadline-bearing request entered the server."""

    kind: ClassVar[str] = "request_arrived"
    request_id: str = ""
    client_id: str = ""
    quota: float = 0.0
    deadline: float = 0.0
    priority: int = 0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class AdmissionDecided(TraceEvent):
    """The admission controller ruled on a request (Figure 3.4 priced it)."""

    kind: ClassVar[str] = "admission_decided"
    request_id: str = ""
    action: str = ""
    reason: str = ""
    min_stage_cost: float = 0.0
    projected_wait: float = 0.0
    budget_at_start: float = 0.0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class RequestStarted(TraceEvent):
    """An admitted request left the run queue and began executing."""

    kind: ClassVar[str] = "request_started"
    request_id: str = ""
    queue_wait: float = 0.0
    budget: float = 0.0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class RequestRetried(TraceEvent):
    """A dispatched request hit a transient fault and was re-executed.

    Only injected/storage faults trigger retries (see :mod:`repro.faults`);
    the backoff is charged to the request's own remaining budget.
    """

    kind: ClassVar[str] = "request_retried"
    request_id: str = ""
    attempt: int = 0
    reason: str = ""
    backoff_seconds: float = 0.0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class QueryPreempted(TraceEvent):
    """A running request was checkpointed at a stage boundary and parked.

    Fired only on a ``QueryServer(preempt=True)``, when a
    strictly-earlier-deadline admitted request is waiting and the runner
    still has slack. The suspended run keeps its seed material and charged
    costs; resuming it is bit-identical to never having stopped.
    """

    kind: ClassVar[str] = "query_preempted"
    request_id: str = ""
    challenger_id: str = ""
    stages_completed: int = 0
    residual_budget: float = 0.0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class QueryResumed(TraceEvent):
    """A parked request won the queue again and continued from its
    checkpoint, against its original absolute deadline."""

    kind: ClassVar[str] = "query_resumed"
    request_id: str = ""
    stages_completed: int = 0
    residual_budget: float = 0.0
    preemptions: int = 0
    clock: float = 0.0


@register_event_type
@dataclass(frozen=True)
class RequestCompleted(TraceEvent):
    """A request reached its terminal outcome (one per request, always)."""

    kind: ClassVar[str] = "request_completed"
    request_id: str = ""
    outcome: str = ""
    reason: str = ""
    queue_wait: float = 0.0
    lateness: float = 0.0
    relative_ci_halfwidth: float | None = None
    clock: float = 0.0
