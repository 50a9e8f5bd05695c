"""Time-control core: strategies, stopping, executor (systems S11–S14)."""

from repro.timecontrol.executor import (
    RunReport,
    StageReport,
    TimeConstrainedExecutor,
)
from repro.timecontrol.sample_size import determine_stage_size
from repro.timecontrol.stopping import (
    AnyOf,
    ErrorConstrained,
    HardDeadline,
    SoftDeadline,
    StopState,
    StoppingCriterion,
    ValueFunction,
    unlimited_quota,
)
from repro.timecontrol.strategies import (
    FixedFractionHeuristic,
    OneAtATimeInterval,
    SingleInterval,
    TimeControlStrategy,
)

__all__ = [
    "AnyOf",
    "ErrorConstrained",
    "FixedFractionHeuristic",
    "HardDeadline",
    "OneAtATimeInterval",
    "RunReport",
    "SingleInterval",
    "SoftDeadline",
    "StageReport",
    "StopState",
    "StoppingCriterion",
    "ValueFunction",
    "TimeConstrainedExecutor",
    "TimeControlStrategy",
    "determine_stage_size",
    "unlimited_quota",
]
