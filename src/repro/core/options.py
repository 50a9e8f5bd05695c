"""Per-query configuration — one frozen bundle instead of kwarg sprawl.

:class:`QueryOptions` collects every tuning knob a time-constrained run
accepts (strategy, stopping criterion, sampling controls, cost-model
overrides, tracing, clock sharing, fault plan) into a single
immutable value that can be built once and reused across queries::

    opts = QueryOptions(strategy=OneAtATimeInterval(d_beta=24),
                        selectivity_source="hybrid")
    result = db.estimate(expr, quota=10.0, options=opts)
    result = db.estimate(expr, quota=5.0, options=opts.replace(trace_costs=True))

Per-call keywords passed to :meth:`Database.estimate` /
:meth:`Database.open_session` override the corresponding option field, so
an options bundle is a set of defaults, not a straitjacket. ``aggregate``
and ``seed`` are deliberately *not* options: they identify the query and
the run rather than configure the machinery.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.costmodel.model import CostModel
    from repro.faults.plan import FaultPlan
    from repro.observability.trace import TraceSink
    from repro.timecontrol.stopping import StoppingCriterion
    from repro.timecontrol.strategies import TimeControlStrategy
    from repro.timekeeping.clock import Clock

SELECTIVITY_SOURCES = ("runtime", "hybrid", "prestored")
INITIAL_SELECTIVITY_KINDS = ("select", "join", "intersect", "project")


@dataclass(frozen=True)
class QueryOptions:
    """Immutable per-query configuration (see module docs).

    This is the one place a per-query option and its default live: the
    plan, the physical builder and the executor all read their knobs from
    the bundle they are handed. ``None`` means "use the database's /
    engine's default" — :func:`~repro.timecontrol.strategies.
    default_strategy` for ``strategy``, :class:`~repro.timecontrol.stopping.
    HardDeadline` for ``stopping``, the database's prior-seeded model for
    ``cost_model`` (pass ``CostModel(specs=…)`` for custom priors).
    ``fault_plan`` attaches a :class:`repro.faults.FaultPlan` so the run
    injects deterministic, seed-replayable faults (see :mod:`repro.faults`).
    ``synopses`` enables the cross-query synopsis catalog
    (:mod:`repro.synopses`), default *off* — the catalog carries state
    between runs, so it is opt-in; ``False`` is bit-identical to an engine
    without the catalog. It is a plain ``bool``: any other value (``None``,
    ``"0"``) is rejected, as are an ``initial_selectivities`` that is not a
    mapping, a key of it outside :data:`INITIAL_SELECTIVITY_KINDS` or a
    value that is not a real number in ``(0, 1]``, and a ``zero_fix_beta``
    that is not a real number in ``(0, 1)``.
    """

    strategy: "TimeControlStrategy | None" = None
    stopping: "StoppingCriterion | None" = None
    full_fulfillment: bool = True
    initial_selectivities: dict[str, float] | None = None
    zero_fix_beta: float | None = None
    measure_overspend: bool = True
    cost_model: "CostModel | None" = None
    max_stages: int = 64
    selectivity_source: str = "runtime"
    sink: "TraceSink | None" = None
    trace_costs: bool = False
    clock: "Clock | None" = None
    synopses: bool = False
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.synopses, bool):
            raise ReproError(f"synopses must be True or False, got {self.synopses!r}")
        initial = self.initial_selectivities
        if initial is not None and not isinstance(initial, Mapping):
            raise ReproError(
                "initial_selectivities must be a mapping of operator kind to "
                f"selectivity, got {initial!r}"
            )
        for kind, value in (initial or {}).items():
            if kind not in INITIAL_SELECTIVITY_KINDS:
                raise ReproError(
                    f"initial_selectivities has unknown operator kind {kind!r}; "
                    f"valid kinds: {', '.join(INITIAL_SELECTIVITY_KINDS)}"
                )
            if not _is_real(value) or not 0.0 < value <= 1.0:  # NaN fails too
                raise ReproError(
                    f"initial_selectivities[{kind!r}] must be in (0, 1], got {value!r}"
                )
        beta = self.zero_fix_beta
        if beta is not None and (not _is_real(beta) or not 0.0 < beta < 1.0):
            raise ReproError(f"zero_fix_beta must be in (0, 1), got {beta!r}")
        if self.selectivity_source not in SELECTIVITY_SOURCES:
            raise ReproError(
                f"selectivity_source must be one of {SELECTIVITY_SOURCES}, "
                f"got {self.selectivity_source!r}"
            )
        if self.max_stages < 1:
            raise ReproError(f"max_stages must be >= 1: {self.max_stages}")

    def replace(self, **changes) -> "QueryOptions":
        """A copy with the given fields changed (unknown names rejected)."""
        field_names = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - field_names)
        if unknown:
            raise ReproError(
                f"unknown query option(s): {', '.join(unknown)}; "
                f"valid options: {', '.join(sorted(field_names))}"
            )
        return dataclasses.replace(self, **changes)


def _is_real(value) -> bool:
    """A real number that is not a ``bool`` (``True`` is no selectivity)."""
    return isinstance(value, Real) and not isinstance(value, bool)


DEFAULT_OPTIONS = QueryOptions()
"""The all-defaults bundle (shared safely — the dataclass is frozen)."""
