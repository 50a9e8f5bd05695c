"""The adaptive cost model — predict and refit per-step costs.

:class:`CostModel` is the controller-side registry of
:class:`~repro.costmodel.linear.OnlineLinearModel` instances, one per step of
the catalogue in :mod:`repro.costmodel.steps`. The staged operator nodes

* call :meth:`predict` inside ``Sample-Size-Determine``'s bisection to price
  a candidate sample fraction, and
* call :meth:`observe` after executing each step with the *measured* charged
  seconds, which is the paper's run-time coefficient adjustment.

``adaptive=False`` freezes the priors — the *fixed-form cost formula*
comparator of ablation A3 ("using a fixed-form cost formula for an operation
is not flexible enough", Section 4).
"""

from __future__ import annotations

from typing import Sequence

from repro.costmodel.linear import OnlineLinearModel, StepSpec
from repro.costmodel.steps import default_step_specs
from repro.errors import CostModelError


class CostModel:
    """Registry of adaptive per-step cost models."""

    def __init__(
        self,
        specs: dict[str, StepSpec] | None = None,
        adaptive: bool = True,
    ) -> None:
        self._specs = dict(specs) if specs is not None else default_step_specs()
        self._models: dict[str, OnlineLinearModel] = {}
        self.adaptive = adaptive

    def _model(self, step: str) -> OnlineLinearModel:
        if step not in self._models:
            if step not in self._specs:
                raise CostModelError(f"unknown cost step {step!r}")
            self._models[step] = OnlineLinearModel(self._specs[step])
        return self._models[step]

    def predict(self, step: str, features: Sequence[float]) -> float:
        """Predicted seconds for one execution of ``step``."""
        return self._model(step).predict(features)

    def theta(self, step: str) -> tuple[float, ...]:
        """``step``'s posterior-mean coefficients as floats (not a copy)."""
        return self._model(step).theta

    def observe(self, step: str, features: Sequence[float], seconds: float) -> None:
        """Refit ``step``'s coefficients from a measured execution."""
        model = self._model(step)
        if not self.adaptive:
            model.check(features, seconds)  # refused as an adaptive one would
            return
        model.observe(features, seconds)

    def coefficients(self, step: str) -> list[float]:
        """Current coefficients (posterior mean) of ``step``'s formula."""
        return [float(c) for c in self._model(step).coefficients]

    def observation_counts(self) -> dict[str, int]:
        """Measured executions folded in so far, per instantiated step."""
        return {name: m.observations for name, m in self._models.items()}
