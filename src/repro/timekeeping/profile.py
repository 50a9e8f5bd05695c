"""Machine cost profiles — the ground truth the controller must learn.

The paper's experiments ran on a SUN 3/60 and measured real elapsed time. In
this reproduction every primitive operation of the storage and operator
substrates *charges* simulated seconds through a
:class:`repro.timekeeping.charger.CostCharger`. The per-unit charges come
from a :class:`MachineProfile` — the **true** coefficients of the machine.

Crucially, the controller's adaptive cost model (``repro.costmodel``) never
sees this profile. It starts from deliberately mismatched defaults (the paper
initialised its coefficients from experiments with the largest 1 KB tuples
and adapted them at run time, Section 5) and must learn the truth from
measured stage times. That separation is what makes the "adaptive time-cost
formula" claim testable in simulation.

The :meth:`MachineProfile.sun3_60` profile is calibrated so that the paper's
quotas admit the same order of sampled blocks as its tables: a 10-second
selection quota admits roughly 50–95 one-kilobyte blocks, and a 2.5-second
intersection quota roughly 20–30 blocks (Figures 5.1/5.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import CostModelError


class CostKind(enum.Enum):
    """Primitive chargeable operations of the simulated machine."""

    BLOCK_READ = "block_read"  # random read of one base-relation disk block
    PAGE_READ = "page_read"  # sequential read of one intermediate page
    PAGE_WRITE = "page_write"  # write one intermediate page to disk
    SELECT_CHECK = "select_check"  # evaluate one selection predicate
    TEMP_WRITE = "temp_write"  # spool one tuple into an operator temp file
    SORT_UNIT = "sort_unit"  # one n*log2(n) unit of external sorting
    SORT_TUPLE = "sort_tuple"  # linear per-tuple part of external sorting
    MERGE_TUPLE = "merge_tuple"  # read + compare one tuple during a merge
    OUTPUT_TUPLE = "output_tuple"  # materialise one operator output tuple
    DEDUPE_TUPLE = "dedupe_tuple"  # duplicate check of one tuple (Project)
    OP_INIT = "op_init"  # fixed setup cost of one operator invocation
    MERGE_INIT = "merge_init"  # fixed setup cost of one pairwise merge
    STAGE_OVERHEAD = "stage_overhead"  # planning + sample drawing per stage


@dataclass(frozen=True)
class MachineProfile:
    """True seconds-per-unit for each :class:`CostKind`.

    ``noise_sigma`` is the standard deviation of the multiplicative
    log-normal jitter the :class:`CostCharger` applies per charge call; it
    models both 1989 clock granularity and genuine run-to-run variation, and
    is the source of the "risk" a time-control strategy must manage.
    """

    name: str
    rates: Mapping[CostKind, float] = field(default_factory=dict)
    noise_sigma: float = 0.12

    def __post_init__(self) -> None:
        missing = [k for k in CostKind if k not in self.rates]
        if missing:
            raise CostModelError(
                f"profile {self.name!r} missing rates for {missing}"
            )
        bad = {k: v for k, v in self.rates.items() if not 0 <= v < math.inf}
        if bad:
            raise CostModelError(f"profile {self.name!r}: non-finite or <0 rates {bad}")
        if not 0 <= self.noise_sigma < math.inf:
            raise CostModelError(f"noise_sigma not finite and >= 0: {self.noise_sigma}")

    def rate(self, kind: CostKind) -> float:
        """True seconds per unit of ``kind``."""
        return self.rates[kind]

    def with_noise(self, noise_sigma: float) -> "MachineProfile":
        """A copy of this profile with a different jitter level."""
        return replace(self, noise_sigma=noise_sigma)

    def scaled(self, factor: float, name: str | None = None) -> "MachineProfile":
        """A uniformly faster/slower machine (all rates times ``factor``)."""
        if not 0 < factor < math.inf:
            raise CostModelError(f"scale factor must be finite and positive: {factor}")
        return MachineProfile(
            name=name or f"{self.name}*{factor:g}",
            rates={k: v * factor for k, v in self.rates.items()},
            noise_sigma=self.noise_sigma,
        )

    # ------------------------------------------------------------------
    # Canned profiles
    # ------------------------------------------------------------------
    @classmethod
    def sun3_60(cls, noise_sigma: float = 0.18) -> "MachineProfile":
        """A 1989 SUN 3/60-class machine (see module docstring)."""
        return cls(
            name="sun3_60",
            rates={
                CostKind.BLOCK_READ: 6.0e-2,
                CostKind.PAGE_READ: 2.5e-2,
                CostKind.PAGE_WRITE: 4.5e-2,
                CostKind.SELECT_CHECK: 5.5e-3,
                CostKind.TEMP_WRITE: 2.2e-3,
                CostKind.SORT_UNIT: 7.0e-4,
                CostKind.SORT_TUPLE: 1.6e-3,
                CostKind.MERGE_TUPLE: 1.1e-3,
                CostKind.OUTPUT_TUPLE: 2.0e-3,
                CostKind.DEDUPE_TUPLE: 1.3e-3,
                CostKind.OP_INIT: 3.0e-2,
                CostKind.MERGE_INIT: 1.2e-2,
                CostKind.STAGE_OVERHEAD: 4.0e-1,
            },
            noise_sigma=noise_sigma,
        )

    @classmethod
    def sun3_60_main_memory(cls, noise_sigma: float = 0.18) -> "MachineProfile":
        """The paper's main-memory evaluation variant (Section 4).

        "A main-memory-only version of the prototype DBMS is also being
        developed … after samples are taken, all data processing is
        confined to the main memory." Sample blocks are still read from
        disk (BLOCK_READ unchanged), but spooling, sorting, merging and
        output materialisation run at memory speed — temp I/O ~20× cheaper,
        CPU-bound per-tuple work ~3× cheaper (no buffer-manager overhead).
        Ablation A8 measures what the paper predicts: "the sampling approach
        with a time-control mechanism … will be very promising" when memory
        is large.
        """
        base = cls.sun3_60(noise_sigma=noise_sigma)
        rates = dict(base.rates)
        for kind in (CostKind.PAGE_READ, CostKind.PAGE_WRITE, CostKind.TEMP_WRITE):
            rates[kind] = rates[kind] / 20.0
        for kind in (
            CostKind.SORT_UNIT,
            CostKind.SORT_TUPLE,
            CostKind.MERGE_TUPLE,
            CostKind.OUTPUT_TUPLE,
            CostKind.DEDUPE_TUPLE,
            CostKind.SELECT_CHECK,
        ):
            rates[kind] = rates[kind] / 3.0
        return cls(
            name="sun3_60_main_memory", rates=rates, noise_sigma=noise_sigma
        )

    @classmethod
    def modern(cls, noise_sigma: float = 0.08) -> "MachineProfile":
        """A contemporary machine — everything ~3 orders of magnitude faster.

        Useful for the real-time (millisecond-quota) examples: the paper
        argues the same control loop applies when quotas shrink with the
        hardware.
        """
        return cls.sun3_60(noise_sigma=noise_sigma).scaled(1e-3, name="modern")

    @classmethod
    def uniform(cls, rate: float, noise_sigma: float = 0.0) -> "MachineProfile":
        """Every primitive costs exactly ``rate`` seconds — for unit tests."""
        return cls(
            name=f"uniform({rate:g})",
            rates={k: rate for k in CostKind},
            noise_sigma=noise_sigma,
        )
