"""Fault plans — the declarative half of the injection subsystem."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

SALVAGE_MODES = ("continue", "finish")


@dataclass(frozen=True)
class FaultPlan:
    """Per-session schedule of injected failures.

    All probabilities are evaluated on the injector's own RNG stream, one
    decision per injection point, so the schedule is deterministic given
    the session seed. An all-zero plan (the default) is *inactive*: no
    injector is constructed and execution is byte-for-byte the unfaulted
    path.

    Parameters
    ----------
    read_error_prob:
        Probability that one block read raises
        :class:`~repro.errors.InjectedFault` (after its I/O was charged —
        the time is wasted, as with a real failed read that must be
        retried).
    slow_read_prob / slow_read_factor:
        Probability that one block read stalls; a stall charges
        ``slow_read_factor`` extra block-read times of raw penalty
        (no jitter) against the quota.
    stage_overrun_prob / stage_overrun_seconds:
        Probability that a completed stage is hit with a trailing stall of
        ``stage_overrun_seconds`` — modelling post-stage work (flush,
        checkpoint) blowing through the deadline.
    fail_stages:
        Stage indices whose *first* attempt deterministically fails on its
        first block read — the scheduled half of the plan, used by the
        salvage tests to place a fault at an exact stage.
    fail_shards:
        Shard indices (of a :class:`~repro.storage.partitioned.
        PartitionedHeapFile`) whose first block read deterministically
        fails, once per shard per session — the shard-targeted analogue of
        ``fail_stages``. Fires without consuming the fault RNG stream, so
        probabilistic schedules replay identically with or without shard
        targets, and fires in every read method of the relation alike
        (reads of plain heap files, which have no shards, are never
        affected).
    max_injections:
        Cap on the total number of injected faults (errors + stalls +
        overruns); ``None`` is unlimited.
    salvage:
        What the executor does after salvaging a fault: ``"continue"``
        (default) retries with the next stage; ``"finish"`` ends the run
        immediately with a ``degraded`` termination.
    seed_salt:
        Mixed into the derived fault RNG so several plans over one session
        seed draw independent fault streams.
    """

    read_error_prob: float = 0.0
    slow_read_prob: float = 0.0
    slow_read_factor: float = 4.0
    stage_overrun_prob: float = 0.0
    stage_overrun_seconds: float = 0.0
    fail_stages: tuple[int, ...] = ()
    fail_shards: tuple[int, ...] = ()
    max_injections: int | None = None
    salvage: str = "continue"
    seed_salt: int = 0

    def __post_init__(self) -> None:
        for name in ("read_error_prob", "slow_read_prob", "stage_overrun_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {value}")
        if self.slow_read_factor < 0:
            raise ReproError(
                f"slow_read_factor must be non-negative: {self.slow_read_factor}"
            )
        if self.stage_overrun_seconds < 0:
            raise ReproError(
                "stage_overrun_seconds must be non-negative: "
                f"{self.stage_overrun_seconds}"
            )
        if self.salvage not in SALVAGE_MODES:
            raise ReproError(
                f"salvage must be one of {SALVAGE_MODES}, got {self.salvage!r}"
            )
        if self.max_injections is not None and self.max_injections < 0:
            raise ReproError(
                f"max_injections must be non-negative: {self.max_injections}"
            )
        if self.seed_salt < 0:
            raise ReproError(f"seed_salt must be non-negative: {self.seed_salt}")
        if any(s < 1 for s in self.fail_stages):
            raise ReproError(f"fail_stages must be >= 1: {self.fail_stages}")
        if any(s < 0 for s in self.fail_shards):
            raise ReproError(f"fail_shards must be >= 0: {self.fail_shards}")
        # Normalise so plan equality is schedule equality.
        object.__setattr__(self, "fail_stages", tuple(self.fail_stages))
        object.__setattr__(self, "fail_shards", tuple(self.fail_shards))

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        if self.max_injections == 0:
            return False
        return bool(
            self.read_error_prob > 0
            or self.slow_read_prob > 0
            or self.stage_overrun_prob > 0
            or self.fail_stages
            or self.fail_shards
        )
