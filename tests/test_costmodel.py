"""Tests for the adaptive cost model (OnlineLinearModel, CostModel)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.linear import OnlineLinearModel, StepSpec
from repro.costmodel.model import CostModel
from repro.costmodel.steps import (
    SCAN_READ,
    SELECT_OP,
    STAGE_OVERHEAD,
    default_step_specs,
)
from repro.errors import CostModelError


@pytest.fixture
def spec():
    return StepSpec("test.step", prior=(1.0, 0.5), scales=(10.0, 1.0), weight=0.5)


class TestStepSpec:
    def test_dim(self, spec):
        assert spec.dim == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(1.0, 1.0))

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(0.0,))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(CostModelError):
            StepSpec("x", prior=(1.0,), scales=(1.0,), weight=0.0)


class TestOnlineLinearModel:
    def test_prior_prediction(self, spec):
        model = OnlineLinearModel(spec)
        assert model.predict([2.0, 1.0]) == pytest.approx(2.5)

    def test_prediction_floored_at_zero(self):
        model = OnlineLinearModel(
            StepSpec("x", prior=(-1.0,), scales=(1.0,))
        )
        assert model.predict([5.0]) == 0.0

    def test_wrong_dim_rejected(self, spec):
        model = OnlineLinearModel(spec)
        with pytest.raises(CostModelError):
            model.predict([1.0])
        with pytest.raises(CostModelError):
            model.observe([1.0], 1.0)

    def test_negative_seconds_rejected(self, spec):
        with pytest.raises(CostModelError):
            OnlineLinearModel(spec).observe([1.0, 1.0], -0.1)

    def test_converges_to_true_predictions(self, spec):
        """Feeding noise-free data from a different linear law makes the
        model's *predictions* converge (coefficients may trade off along
        collinear directions, which is fine — predictions are what QCOST
        uses)."""
        model = OnlineLinearModel(spec)
        rng = np.random.default_rng(0)
        true = np.array([0.2, 0.05])
        for _ in range(50):
            x = np.array([rng.uniform(1, 30), 1.0])
            model.observe(x, float(true @ x))
        # Accurate within the feature range the data covered (collinearity
        # leaves the far extrapolation toward u→0 weakly determined).
        for u in (10.0, 18.0, 25.0):
            x = np.array([u, 1.0])
            assert model.predict(x) == pytest.approx(float(true @ x), rel=0.1)

    def test_single_observation_moves_toward_truth(self, spec):
        model = OnlineLinearModel(spec)
        before = model.predict([20.0, 1.0])  # prior: 20.5
        model.observe([20.0, 1.0], 5.0)
        after = model.predict([20.0, 1.0])
        assert abs(after - 5.0) < abs(before - 5.0)

    def test_observation_count(self, spec):
        model = OnlineLinearModel(spec)
        model.observe([1.0, 1.0], 1.0)
        assert model.observations == 1

    @pytest.mark.parametrize(
        "features, seconds",
        [
            ([4, 1.0], math.nan),
            ([4, 1.0], math.inf),
            ([math.nan, 1.0], 1.0),
            ([4, -math.inf], 1.0),
        ],
    )
    def test_non_finite_observation_rejected(self, spec, features, seconds):
        """One NaN folded in would make every later prediction NaN."""
        model = OnlineLinearModel(spec)
        with pytest.raises(CostModelError, match="finite"):
            model.observe(features, seconds)
        assert model.observations == 0
        assert model.predict([4, 1.0]) == 4.5


_values = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["observe", "predict", "read"]),
        st.lists(_values, min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    max_size=30,
)


class TestPlainFloatPosterior:
    """The posterior in Python floats against the eager NumPy reference:
    ``A += outer(x, x)``, ``b += x·seconds``, ``θ = solve(A, b)`` after
    every observation, ``θ @ x`` per prediction."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(min_value=1, max_value=3), ops=_ops)
    def test_lazy_solve_matches_the_eager_reference(self, dim, ops):
        spec = StepSpec(
            "s", prior=(0.3, 0.02, 0.05)[:dim], scales=(20.0, 2.0, 1.0)[:dim]
        )
        model = OnlineLinearModel(spec)
        a = np.diag(spec.weight * np.asarray(spec.scales) ** 2)
        b = a @ np.asarray(spec.prior)
        theta = np.asarray(spec.prior, dtype=float)
        for op, values, seconds in ops:
            x = values[:dim]
            if op == "observe":
                model.observe(x, seconds)
                xs = np.asarray(x)
                a += np.outer(xs, xs)
                b += xs * seconds
                theta = np.linalg.solve(a, b)
                assert np.array(model._a).tobytes() == a.tobytes()
                assert np.array(model._b).tobytes() == b.tobytes()
            elif op == "predict":
                fixed_order = theta[0] * x[0]
                for c, v in zip(theta[1:], x[1:]):
                    fixed_order += c * v
                predicted = model.predict(x)
                assert predicted == max(float(fixed_order), 0.0)
                # NumPy's θ @ x is an FMA chain here: within two ulps of
                # Σ|θᵢxᵢ| (one, mostly), which is the result itself when no
                # term cancels another.
                blas = max(float(theta @ np.asarray(x)), 0.0)
                magnitude = sum(abs(c * v) for c, v in zip(theta, x))
                assert abs(predicted - blas) <= 2 * math.ulp(magnitude)
            else:
                assert model.coefficients.tobytes() == theta.tobytes()
        assert model.coefficients.tobytes() == theta.tobytes()

    def test_a_solve_no_prediction_reads_is_skipped(self, spec, monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b)
        )
        model = OnlineLinearModel(spec)
        for n in range(1, 6):
            model.observe([n, 1.0], 0.1 * n)
        assert calls == []
        model.predict([3, 1.0])
        model.predict([4, 1.0])
        assert len(calls) == 1


class TestCostModel:
    def test_default_specs_cover_all_steps(self):
        specs = default_step_specs()
        assert SCAN_READ in specs and SELECT_OP in specs
        assert STAGE_OVERHEAD in specs

    def test_predict_with_prior(self):
        model = CostModel()
        assert model.predict(SCAN_READ, [1.0, 1.0]) > 0.0

    def test_unknown_step_rejected(self):
        with pytest.raises(CostModelError):
            CostModel().predict("nope.step", [1.0])

    def test_observe_changes_prediction(self):
        model = CostModel()
        before = model.predict(SCAN_READ, [10.0, 1.0])
        model.observe(SCAN_READ, [10.0, 1.0], before * 0.1)
        after = model.predict(SCAN_READ, [10.0, 1.0])
        assert after < before

    @pytest.mark.parametrize(
        "features, seconds", [([1, 2, 3], 1.0), ([1.0, 1.0], math.nan)]
    )
    def test_non_adaptive_still_validates(self, features, seconds):
        """A frozen model refuses what an adaptive one would."""
        with pytest.raises(CostModelError):
            CostModel(adaptive=False).observe(SCAN_READ, features, seconds)

    def test_non_adaptive_freezes_coefficients(self):
        model = CostModel(adaptive=False)
        before = model.predict(SCAN_READ, [10.0, 1.0])
        model.observe(SCAN_READ, [10.0, 1.0], 0.0)
        assert model.predict(SCAN_READ, [10.0, 1.0]) == before
        assert model.observation_counts() == {SCAN_READ: 0}

    def test_observation_counts(self):
        model = CostModel()
        model.observe(SCAN_READ, [1.0, 1.0], 0.5)
        model.observe(SCAN_READ, [2.0, 1.0], 0.9)
        assert model.observation_counts()[SCAN_READ] == 2

    def test_coefficients_exposed(self):
        model = CostModel()
        coefs = model.coefficients(STAGE_OVERHEAD)
        assert len(coefs) == 1 and coefs[0] > 0


class TestPriorsAreMiscalibrated:
    """The designer priors must over-estimate the calibrated machine —
    that mismatch is what the adaptive claim is about."""

    def test_scan_prior_above_true_block_cost(self):
        from repro.timekeeping.profile import CostKind, MachineProfile

        prior = default_step_specs()[SCAN_READ].prior[0]
        true = MachineProfile.sun3_60().rate(CostKind.BLOCK_READ)
        assert prior > 1.5 * true
