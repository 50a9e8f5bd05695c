"""Online Bayesian linear regression for step-cost coefficients.

Section 4 of the paper: "during the execution of the operation, we record
the actual amount of time spent on each step and, based on it, we
dynamically adjust the coefficients of the cost functions for each step".

Each time-consuming step of an operator (write / sort / merge / …) has a
linear cost formula ``cost = θ · x`` over a small feature vector (e.g.
``[n·log2 n, n, 1]`` for the sort step, equation 4.3). We maintain the
coefficients with conjugate Bayesian updating: a Gaussian prior
``N(θ0, diag(scale²)/weight)`` around the designer's initial coefficients,
plus the normal equations of all observed (features, seconds) pairs. With a
handful of observations per query — one per stage — the posterior mean moves
quickly toward the machine's true coefficients while the prior keeps the
problem well-posed, which is exactly the adaptive behaviour the paper
describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CostModelError


@dataclass(frozen=True)
class StepSpec:
    """Static description of one step model.

    ``prior`` — the designer's initial coefficients (Section 5: "assigned
    initial values based on the experiments ...").
    ``scales`` — typical feature magnitudes, setting how strongly the prior
    resists the first observations per coordinate.
    ``weight`` — prior pseudo-observation count.
    """

    name: str
    prior: tuple[float, ...]
    scales: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.prior) != len(self.scales):
            raise CostModelError(
                f"step {self.name!r}: prior and scales lengths differ"
            )
        if any(s <= 0 for s in self.scales):
            raise CostModelError(f"step {self.name!r}: scales must be positive")
        if self.weight <= 0:
            raise CostModelError(f"step {self.name!r}: weight must be positive")

    @property
    def dim(self) -> int:
        return len(self.prior)


class OnlineLinearModel:
    """Posterior-mean linear model for one step's cost, in Python floats:
    ``θ = solve(A, b)`` is solved when next read, and a prediction is the
    fixed-order sum ``θ₀x₀ + θ₁x₁ + …`` (the same bits on any IEEE-754 host)."""

    def __init__(self, spec: StepSpec) -> None:
        self.spec = spec
        theta0 = np.asarray(spec.prior, dtype=float)
        scales = np.asarray(spec.scales, dtype=float)
        # Prior precision: weight observations at typical feature magnitude.
        a = np.diag(spec.weight * scales * scales)
        self._a: list[list[float]] = a.tolist()
        self._b: list[float] = (a @ theta0).tolist()
        self._theta: tuple[float, ...] | None = tuple(theta0.tolist())
        self.observations = 0

    @property
    def theta(self) -> tuple[float, ...]:
        """Posterior-mean coefficients (solved here if an observation is new)."""
        if self._theta is None:
            solved = np.linalg.solve(np.array(self._a), np.array(self._b))
            self._theta = tuple(solved.tolist())
        return self._theta

    @property
    def coefficients(self) -> np.ndarray:
        """Current posterior-mean coefficients."""
        return np.array(self.theta)

    def check(self, features: Sequence[float], seconds: float = 0.0) -> list[float]:
        """``features`` as floats; a wrong length, a non-finite value (θ would
        be NaN for good) and a negative time are refused."""
        x = [float(v) for v in features]
        if len(x) != self.spec.dim or not (
            all(map(math.isfinite, x)) and 0 <= seconds < math.inf
        ):
            raise CostModelError(
                f"step {self.spec.name!r}: expected {self.spec.dim} finite "
                f"features and a finite time >= 0, got {x} -> {seconds}"
            )
        return x

    def predict(self, features: Sequence[float]) -> float:
        """Predicted seconds for one step execution (floored at 0)."""
        x = self.check(features)
        theta = self.theta
        total = theta[0] * x[0]
        for c, v in zip(theta[1:], x[1:]):
            total += c * v
        return max(total, 0.0)

    def observe(self, features: Sequence[float], seconds: float) -> None:
        """Fold one measured (features, seconds) pair into the posterior."""
        x = self.check(features, seconds)
        seconds = float(seconds)
        # The roundings of A += outer(x, x), b += x·seconds, element by element.
        for i, x_i in enumerate(x):
            row = self._a[i]
            for j, x_j in enumerate(x):
                row[j] += x_i * x_j
            self._b[i] += x_i * seconds
        self._theta = None
        self.observations += 1
