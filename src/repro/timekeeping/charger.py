"""The cost charger — simulated work, deadlines, and measurement.

Every primitive operation in the storage and operator layers calls
:meth:`CostCharger.charge`, which advances the clock by
``rate(kind) * amount * jitter`` simulated seconds. Three concerns meet here:

* **Ground truth.** The charger applies the *true* machine profile plus
  multiplicative log-normal noise, so stage durations are realistically
  uncertain from the controller's point of view.
* **The timer interrupt.** :meth:`arm` installs a deadline. In ``hard`` mode
  a charge that crosses it raises :class:`repro.errors.QuotaExpired`
  mid-operation — the paper's hard time constraint, where "the execution is
  interrupted whenever the time quota is consumed" (Section 3.2). In
  ``record`` mode the crossing is only noted, which reproduces how the ERAM
  measurements let the aborted stage run to completion so the overspent time
  could be reported (Section 5).
* **Measurement.** :meth:`measure` brackets a code region and returns its
  elapsed charged time, which the adaptive cost model uses to refit its
  coefficients (Section 4's "record the actual amount of time spent on each
  step").

A batched block read charges its blocks through :meth:`CostCharger.units`:
one unit per call, bit-identical to one ``charge(kind, 1)`` per block, but
with the jitter of the whole read drawn in one vectorised call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import QuotaExpired, TimeControlError
from repro.observability.trace import NULL_SINK, CostCharged, TraceSink
from repro.timekeeping.clock import Clock, SimulatedClock
from repro.timekeeping.profile import CostKind, MachineProfile


@dataclass
class _Meter:
    """Result object of a :meth:`CostCharger.measure` region."""

    start: float
    elapsed: float = 0.0


class _Units:
    """The context manager :meth:`CostCharger.units` returns.

    ``__enter__`` draws the jitter of all ``count`` units at once and
    yields :meth:`charge_one`; ``__exit__`` writes the summed totals back
    and, when fewer than ``count`` units were charged, rewinds the RNG to
    where that many scalar charges would have left it.
    """

    __slots__ = (
        "_charger", "_kind", "_count", "_rate", "_seconds", "_state",
        "_total", "_counted", "_used",
    )

    def __init__(self, charger: "CostCharger", kind: CostKind, count: int) -> None:
        if count < 0:
            raise TimeControlError(f"cannot charge a negative unit count {count}")
        self._charger = charger
        self._kind = kind
        self._count = count
        self._rate = charger.profile.rate(kind)
        self._seconds: list[float] | None = None
        self._state: dict | None = None
        self._used = 0

    def __enter__(self) -> Callable[[], float]:
        charger = self._charger
        sigma = charger.profile.noise_sigma
        if self._count and sigma > 0 and self._rate > 0:
            rng = charger._rng
            self._state = rng.bit_generator.state
            # One draw for the read: element i equals the i-th scalar
            # ``charge`` jitter bit for bit (tests/test_timekeeping.py).
            jitter = np.exp(rng.normal(-0.5 * sigma * sigma, sigma, self._count))
            self._seconds = (self._rate * jitter).tolist()
        self._total = charger.totals[self._kind]
        self._counted = charger.counts[self._kind]
        return self.charge_one

    def charge_one(self) -> float:
        """Charge the next unit; exactly ``charge(kind, 1)``."""
        used = self._used
        if used == self._count:
            raise TimeControlError(f"all {self._count} units already charged")
        self._used = used + 1
        seconds = self._rate if self._seconds is None else self._seconds[used]
        self._total += seconds
        self._counted += 1
        charger = self._charger
        now = charger._advance(seconds)
        if charger.trace_costs:
            charger.sink.emit(
                CostCharged(
                    cost_kind=self._kind.name.lower(),
                    amount=1,
                    seconds=seconds,
                    clock=now,
                )
            )
        charger._check_deadline(now)
        return seconds

    def __exit__(self, *exc_info) -> None:
        charger = self._charger
        charger.totals[self._kind] = self._total
        charger.counts[self._kind] = self._counted
        used = self._used
        if self._state is not None and used < self._count:
            rng = charger._rng
            rng.bit_generator.state = self._state
            if used:
                sigma = charger.profile.noise_sigma
                rng.normal(-0.5 * sigma * sigma, sigma, used)


class CostCharger:
    """Charges simulated time for primitive operations (see module docs)."""

    def __init__(
        self,
        profile: MachineProfile,
        clock: Clock | None = None,
        rng: np.random.Generator | None = None,
        sink: TraceSink | None = None,
        trace_costs: bool = False,
    ) -> None:
        self.profile = profile
        self.clock: Clock = clock if clock is not None else SimulatedClock()
        self._rng = rng if rng is not None else np.random.default_rng()
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        # Per-charge events sit on the hottest path in the system; they are
        # gated behind an explicit flag so untraced runs pay one bool check.
        self.trace_costs = trace_costs
        self._deadline: float | None = None
        self._hard = False
        self._first_crossing: float | None = None
        self.totals: dict[CostKind, float] = {k: 0.0 for k in CostKind}
        self.counts: dict[CostKind, float] = {k: 0.0 for k in CostKind}
        self.penalty_seconds = 0.0

    # ------------------------------------------------------------------
    # Deadline (timer interrupt) management
    # ------------------------------------------------------------------
    def arm(self, deadline: float, hard: bool) -> None:
        """Install the quota deadline (absolute clock time).

        ``hard=True`` aborts mid-charge with :class:`QuotaExpired`;
        ``hard=False`` records the first crossing and lets work continue.
        """
        if deadline < self.clock.now():
            raise TimeControlError(
                f"deadline {deadline:.6f} is already in the past "
                f"(clock={self.clock.now():.6f})"
            )
        self._deadline = deadline
        self._hard = hard
        self._first_crossing = None

    def disarm(self) -> None:
        """Remove the deadline (keeps crossing information)."""
        self._deadline = None

    @property
    def deadline(self) -> float | None:
        return self._deadline

    @property
    def crossed_at(self) -> float | None:
        """Clock value of the first charge that crossed the deadline."""
        return self._first_crossing

    def remaining(self) -> float:
        """Seconds until the armed deadline (may be negative); inf if none."""
        if self._deadline is None:
            return math.inf
        return self._deadline - self.clock.now()

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, kind: CostKind, amount: float = 1.0) -> float:
        """Charge ``amount`` units of ``kind``; returns seconds charged.

        The charge is atomic: the clock advances by the full (jittered) cost
        even if the deadline is crossed, because the underlying "work" was
        in flight when the interrupt fired. ``QuotaExpired`` is raised after
        the advance when the deadline is armed in hard mode.
        """
        if amount < 0:
            raise TimeControlError(f"cannot charge negative amount {amount}")
        if amount == 0:
            return 0.0
        seconds = self.profile.rate(kind) * amount
        if self.profile.noise_sigma > 0 and seconds > 0:
            sigma = self.profile.noise_sigma
            # Mean-one log-normal jitter so expected cost matches the profile.
            seconds *= float(
                np.exp(self._rng.normal(-0.5 * sigma * sigma, sigma))
            )
        self.totals[kind] += seconds
        self.counts[kind] += amount
        now = self._advance(seconds)
        if self.trace_costs:
            self.sink.emit(
                CostCharged(
                    cost_kind=kind.name.lower(),
                    amount=amount,
                    seconds=seconds,
                    clock=now,
                )
            )
        self._check_deadline(now)
        return seconds

    def units(self, kind: CostKind, count: int) -> _Units:
        """Charge up to ``count`` single units of ``kind``, one per call.

        ``with charger.units(kind, n) as charge_one:`` — each
        ``charge_one()`` is bit-identical to ``charge(kind, 1)``: the same
        clock advance, ``CostCharged`` event, first crossing and
        ``QuotaExpired``. Only the bookkeeping is batched. The jitter of
        all ``count`` units is drawn up front in one call; ``totals`` and
        ``counts`` are summed in the same order and written back on exit;
        and leaving the ``with`` block after fewer than ``count`` calls (a
        deadline, a fault, a bad block id) rewinds the RNG to where that
        many scalar charges would have left it. Inside the ``with`` block
        nothing else may draw from this charger's RNG or charge ``kind``.
        """
        return _Units(self, kind, count)

    def penalty(self, seconds: float) -> float:
        """Charge ``seconds`` of raw stall time (injected or external waits).

        Unlike :meth:`charge`, a penalty has no rate, no jitter (the RNG is
        untouched), and no :class:`CostKind` — it models time lost to
        something other than modelled work: an injected slow read, a stage
        overrun, a retry backoff. It honours the armed deadline exactly
        like a charge does, so a stall can trip the hard timer interrupt.
        """
        if seconds < 0:
            raise TimeControlError(f"cannot charge negative penalty {seconds}")
        if seconds == 0:
            return 0.0
        self.penalty_seconds += seconds
        now = self._advance(seconds)
        self._check_deadline(now)
        return seconds

    def _check_deadline(self, now: float) -> None:
        """The timer interrupt: note the first crossing of the armed
        deadline and, in hard mode, raise :class:`QuotaExpired` once."""
        deadline = self._deadline
        if deadline is not None and now > deadline:
            if self._first_crossing is None:
                self._first_crossing = now
            if self._hard:
                self._deadline = None  # fire once
                raise QuotaExpired(deadline, now)

    def _advance(self, seconds: float) -> float:
        clock = self.clock
        if isinstance(clock, SimulatedClock):
            return clock.advance(seconds)
        # Wall clock: real work takes real time; just observe it.
        return clock.now()

    # ------------------------------------------------------------------
    # Measurement (for the adaptive cost model)
    # ------------------------------------------------------------------
    @contextmanager
    def measure(self) -> Iterator[_Meter]:
        """Context manager measuring the charged time of its body."""
        meter = _Meter(start=self.clock.now())
        try:
            yield meter
        finally:
            meter.elapsed = self.clock.now() - meter.start

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_charged(self) -> float:
        """Total simulated seconds charged so far, across all kinds."""
        return sum(self.totals.values())

    def reset_accounting(self) -> None:
        """Zero the per-kind totals/counts (clock is left untouched)."""
        self.totals = {k: 0.0 for k in CostKind}
        self.counts = {k: 0.0 for k in CostKind}
