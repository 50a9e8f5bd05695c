"""Unit tests for clocks, machine profiles, and the cost charger."""

import math

import numpy as np
import pytest

from repro.errors import CostModelError, QuotaExpired, TimeControlError
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.clock import SimulatedClock, WallClock
from repro.timekeeping.profile import CostKind, MachineProfile


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(TimeControlError):
            SimulatedClock().advance(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(TimeControlError):
            SimulatedClock(start=-1)


class TestWallClock:
    def test_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a >= 0.0


class TestMachineProfile:
    def test_sun3_60_has_all_kinds(self):
        profile = MachineProfile.sun3_60()
        for kind in CostKind:
            assert profile.rate(kind) >= 0

    def test_missing_rate_rejected(self):
        with pytest.raises(CostModelError):
            MachineProfile(name="bad", rates={CostKind.BLOCK_READ: 1.0})

    def test_negative_rate_rejected(self):
        rates = {k: 1.0 for k in CostKind}
        rates[CostKind.SORT_UNIT] = -1.0
        with pytest.raises(CostModelError):
            MachineProfile(name="bad", rates=rates)

    def test_scaled_multiplies_all_rates(self):
        base = MachineProfile.uniform(2.0)
        half = base.scaled(0.5)
        for kind in CostKind:
            assert half.rate(kind) == pytest.approx(1.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(CostModelError):
            MachineProfile.uniform(1.0).scaled(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        """A NaN rate would make every charge NaN; inf is no machine."""
        with pytest.raises(CostModelError, match="non-finite"):
            MachineProfile.uniform(bad)
        with pytest.raises(CostModelError, match="finite"):
            MachineProfile.uniform(1.0, noise_sigma=bad)
        with pytest.raises(CostModelError, match="finite and positive"):
            MachineProfile.uniform(1.0).scaled(bad)

    def test_modern_is_much_faster(self):
        assert MachineProfile.modern().rate(CostKind.BLOCK_READ) < 1e-3

    def test_with_noise(self):
        quiet = MachineProfile.sun3_60().with_noise(0.0)
        assert quiet.noise_sigma == 0.0


class TestChargerBasics:
    def test_charge_advances_clock_deterministically(self, unit_charger):
        unit_charger.charge(CostKind.BLOCK_READ, 3)
        assert unit_charger.clock.now() == pytest.approx(3.0)

    def test_zero_amount_is_free(self, unit_charger):
        assert unit_charger.charge(CostKind.BLOCK_READ, 0) == 0.0
        assert unit_charger.clock.now() == 0.0

    def test_negative_amount_rejected(self, unit_charger):
        with pytest.raises(TimeControlError):
            unit_charger.charge(CostKind.BLOCK_READ, -1)

    def test_totals_and_counts_tracked(self, unit_charger):
        unit_charger.charge(CostKind.PAGE_WRITE, 2)
        unit_charger.charge(CostKind.PAGE_WRITE, 3)
        assert unit_charger.counts[CostKind.PAGE_WRITE] == 5
        assert unit_charger.totals[CostKind.PAGE_WRITE] == pytest.approx(5.0)
        assert unit_charger.total_charged() == pytest.approx(5.0)

    def test_reset_accounting_keeps_clock(self, unit_charger):
        unit_charger.charge(CostKind.PAGE_WRITE, 2)
        unit_charger.reset_accounting()
        assert unit_charger.total_charged() == 0.0
        assert unit_charger.clock.now() == pytest.approx(2.0)


class TestChargerNoise:
    def test_noise_is_mean_one(self):
        profile = MachineProfile.uniform(1.0, noise_sigma=0.3)
        rng = np.random.default_rng(0)
        charger = CostCharger(profile, rng=rng)
        n = 4000
        total = sum(charger.charge(CostKind.BLOCK_READ, 1) for _ in range(n))
        assert total / n == pytest.approx(1.0, rel=0.05)

    def test_noise_reproducible_with_seeded_rng(self):
        profile = MachineProfile.uniform(1.0, noise_sigma=0.3)
        a = CostCharger(profile, rng=np.random.default_rng(7))
        b = CostCharger(profile, rng=np.random.default_rng(7))
        seq_a = [a.charge(CostKind.BLOCK_READ, 1) for _ in range(10)]
        seq_b = [b.charge(CostKind.BLOCK_READ, 1) for _ in range(10)]
        assert seq_a == seq_b


class TestBatchedJitter:
    """The premise of :meth:`CostCharger.units`: one vectorised normal
    draw plus ``np.exp`` is bit-equal to the scalar sequence ``charge``
    draws, and leaves the generator where the scalar draws would."""

    @pytest.mark.parametrize("sigma", [0.18, 0.3])
    def test_batched_normal_and_exp_equal_the_scalar_sequence(self, sigma):
        loc = -0.5 * sigma * sigma
        scalar_rng = np.random.default_rng(2024)
        scalar, states = [], []
        for _ in range(1000):
            scalar.append(float(np.exp(scalar_rng.normal(loc, sigma))))
            states.append(scalar_rng.bit_generator.state)
        for size in range(1, 1001):
            rng = np.random.default_rng(2024)
            batched = np.exp(rng.normal(loc, sigma, size)).tolist()
            assert batched == scalar[:size] and (
                rng.bit_generator.state == states[size - 1]
            ), (
                f"numpy {np.__version__}: batched normal+exp of size {size} "
                f"(sigma={sigma}) differs from the scalar sequence; "
                "CostCharger.units is no longer bit-identical to charge()"
            )


class TestUnits:
    @staticmethod
    def _pair(trace: bool = True):
        from repro.observability import RecordingSink

        profile = MachineProfile.sun3_60()
        return [
            CostCharger(
                profile,
                rng=np.random.default_rng(5),
                sink=RecordingSink(),
                trace_costs=trace,
            )
            for _ in range(2)
        ]

    @staticmethod
    def _state(charger):
        return (
            charger.clock.now(),
            dict(charger.totals),
            dict(charger.counts),
            charger.crossed_at,
            charger._rng.bit_generator.state,
            [e.to_dict() for e in charger.sink],
        )

    def test_units_equal_scalar_charges(self):
        batched, scalar = self._pair()
        scalar.charge(CostKind.BLOCK_READ, 2)
        batched.charge(CostKind.BLOCK_READ, 2)
        with batched.units(CostKind.BLOCK_READ, 7) as charge_one:
            got = [charge_one() for _ in range(7)]
        want = [scalar.charge(CostKind.BLOCK_READ, 1) for _ in range(7)]
        assert got == want
        assert self._state(batched) == self._state(scalar)

    @pytest.mark.parametrize("used", [0, 1, 4])
    def test_early_exit_rewinds_the_rng(self, used):
        batched, scalar = self._pair()
        with pytest.raises(RuntimeError):
            with batched.units(CostKind.BLOCK_READ, 9) as charge_one:
                for _ in range(used):
                    charge_one()
                raise RuntimeError("read cut short")
        for _ in range(used):
            scalar.charge(CostKind.BLOCK_READ, 1)
        assert self._state(batched) == self._state(scalar)
        # ... and the stream carries on exactly as the scalar one does.
        assert batched.charge(CostKind.SORT_TUPLE, 3) == scalar.charge(
            CostKind.SORT_TUPLE, 3
        )

    def test_hard_deadline_inside_units(self):
        batched, scalar = self._pair()
        for charger in (batched, scalar):
            charger.arm(0.14, hard=True)
        with pytest.raises(QuotaExpired):
            with batched.units(CostKind.BLOCK_READ, 6) as charge_one:
                for _ in range(6):
                    charge_one()
        with pytest.raises(QuotaExpired):
            for _ in range(6):
                scalar.charge(CostKind.BLOCK_READ, 1)
        assert batched.counts[CostKind.BLOCK_READ] < 6
        assert self._state(batched) == self._state(scalar)

    def test_charging_past_count_is_rejected(self, unit_charger):
        with unit_charger.units(CostKind.BLOCK_READ, 1) as charge_one:
            charge_one()
            with pytest.raises(TimeControlError):
                charge_one()
        assert unit_charger.counts[CostKind.BLOCK_READ] == 1


class TestDeadline:
    def test_record_mode_notes_crossing(self, unit_charger):
        unit_charger.arm(2.5, hard=False)
        unit_charger.charge(CostKind.BLOCK_READ, 2)
        assert unit_charger.crossed_at is None
        unit_charger.charge(CostKind.BLOCK_READ, 1)
        assert unit_charger.crossed_at == pytest.approx(3.0)

    def test_hard_mode_raises_after_advancing(self, unit_charger):
        unit_charger.arm(2.5, hard=True)
        unit_charger.charge(CostKind.BLOCK_READ, 2)
        with pytest.raises(QuotaExpired) as exc:
            unit_charger.charge(CostKind.BLOCK_READ, 1)
        assert exc.value.deadline == pytest.approx(2.5)
        # Work in flight completes: clock reflects the full charge.
        assert unit_charger.clock.now() == pytest.approx(3.0)

    def test_hard_interrupt_fires_once(self, unit_charger):
        unit_charger.arm(0.5, hard=True)
        with pytest.raises(QuotaExpired):
            unit_charger.charge(CostKind.BLOCK_READ, 1)
        # Further charges proceed without raising (deadline disarmed).
        unit_charger.charge(CostKind.BLOCK_READ, 1)

    def test_arm_in_past_rejected(self, unit_charger):
        unit_charger.charge(CostKind.BLOCK_READ, 5)
        with pytest.raises(TimeControlError):
            unit_charger.arm(1.0, hard=True)

    def test_remaining(self, unit_charger):
        unit_charger.arm(10.0, hard=False)
        unit_charger.charge(CostKind.BLOCK_READ, 4)
        assert unit_charger.remaining() == pytest.approx(6.0)

    def test_remaining_without_deadline_is_inf(self, unit_charger):
        assert math.isinf(unit_charger.remaining())

    def test_disarm(self, unit_charger):
        unit_charger.arm(1.0, hard=True)
        unit_charger.disarm()
        unit_charger.charge(CostKind.BLOCK_READ, 5)  # no raise


class TestMeasure:
    def test_measure_captures_elapsed(self, unit_charger):
        with unit_charger.measure() as meter:
            unit_charger.charge(CostKind.SORT_TUPLE, 4)
        assert meter.elapsed == pytest.approx(4.0)

    def test_measure_captures_on_exception(self, unit_charger):
        meter_ref = None
        try:
            with unit_charger.measure() as meter:
                meter_ref = meter
                unit_charger.charge(CostKind.SORT_TUPLE, 2)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert meter_ref is not None and meter_ref.elapsed == pytest.approx(2.0)

    def test_nested_measures(self, unit_charger):
        with unit_charger.measure() as outer:
            unit_charger.charge(CostKind.SORT_TUPLE, 1)
            with unit_charger.measure() as inner:
                unit_charger.charge(CostKind.SORT_TUPLE, 2)
        assert inner.elapsed == pytest.approx(2.0)
        assert outer.elapsed == pytest.approx(3.0)
