"""The engine's block reads pinned against the per-block reference.

``HeapFile.read_blocks_decoded`` — the read every staged scan issues — is
pinned against ``HeapFile.read_blocks`` in rows, charges and injector
consultations, also when a deadline, a fault or a bad block id cuts the
read short, down to the deadline crossing and the RNG position it leaves.
A partitioned relation's ``read_sharded`` is pinned against the plain
batched read (invariant 10 at the storage level: one loop, plus the
per-shard tallies).
"""

from __future__ import annotations

import pytest

from repro.errors import QuotaExpired, StorageError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro.storage.partitioned import PARTITION_STRATEGIES, PartitionedHeapFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind, MachineProfile
from tests.conftest import make_relation


def observed_read(
    read, faulted=True, salt=9, *, profile=None, plan=None, deadline=None,
    hard=True,
):
    """One charged read — ``read(charger, injector) -> rows`` — and
    everything it did observably: the rows or the error that stopped it
    (out-of-bounds id, injected fault, deadline), the clock, totals,
    counts, fault events, the first deadline crossing, and where the
    session RNG stream stands afterwards.

    ``plan`` replaces the default slow-read plan (and implies an
    injector); ``deadline`` arms the charger, in hard mode unless
    ``hard=False``.
    """
    import numpy as np

    rng = np.random.default_rng(salt)
    charger = CostCharger(profile or MachineProfile.sun3_60(), rng=rng)
    if deadline is not None:
        charger.arm(deadline, hard=hard)
    sink = RecordingSink()
    injector = None
    if faulted or plan is not None:
        injector = FaultInjector(
            plan or FaultPlan(slow_read_prob=0.5, slow_read_factor=3.0),
            np.random.default_rng(salt + 1),
            sink,
        )
    try:
        rows, error = read(charger, injector), None
    except (StorageError, QuotaExpired) as exc:
        rows, error = None, f"{type(exc).__name__}: {exc}"
    return (
        rows,
        error,
        charger.clock.now(),
        sorted((k.name, v) for k, v in charger.totals.items()),
        sorted((k.name, v) for k, v in charger.counts.items()),
        [e.to_dict() for e in sink],
        charger.crossed_at,
        rng.bit_generator.state,
    )


def batched_read(heap, draw):
    """``heap``'s engine-facing read of ``draw``."""
    read = getattr(heap, "read_sharded", heap.read_blocks_decoded)

    def run(charger, injector):
        rows, batch, *_ = read(draw, charger, injector)
        assert batch.rows is rows
        return rows

    return run


class TestStorageReference:
    """``_read`` ≡ the per-block ``read_blocks`` loop, block for block."""

    DRAW = [3, 0, 4, 0, 2]  # includes a repeat within one read

    def test_batched_read_equals_the_reference(self, int_schema):
        heap = make_relation("r1", int_schema, [(i, i % 3) for i in range(25)])
        reference = observed_read(
            lambda charger, injector: heap.read_blocks(self.DRAW, charger, injector)
        )
        assert reference[5]  # the injector really was consulted and fired
        assert observed_read(batched_read(heap, self.DRAW)) == reference

    def test_empty_read_produces_empty_batch(self, int_schema, free_charger):
        heap = make_relation("r1", int_schema, [(i, i % 3) for i in range(25)])
        rows, batch = heap.read_blocks_decoded([], free_charger)
        assert rows == [] and len(batch) == 0
        assert batch.column(0).shape == (0,)

    # On sun3_60 with salt 9 the five jittered BLOCK_READs of DRAW end at
    # clock 0.051, 0.113, 0.157, 0.223, 0.296: a deadline of 0.14 falls in
    # block 3. With a 1x slow-read penalty after every block, block 2's
    # penalty carries the clock from 0.173 to 0.233, across 0.2.
    INTERRUPTED = {
        "hard-deadline": (dict(faulted=False, deadline=0.14), "QuotaExpired", 3),
        "record-deadline": (
            dict(faulted=False, deadline=0.14, hard=False), None, 5
        ),
        "read-error": (
            dict(plan=FaultPlan(read_error_prob=1.0, max_injections=1)),
            "InjectedFault",
            1,
        ),
        "slow-read-past-deadline": (
            dict(
                plan=FaultPlan(slow_read_prob=1.0, slow_read_factor=1.0),
                deadline=0.2,
            ),
            "QuotaExpired",
            2,
        ),
        "out-of-range-id": (dict(draw=[3, 0, 99, 4, 2]), "StorageError", 2),
        "no-jitter": (
            dict(
                faulted=False,
                profile=MachineProfile.sun3_60(noise_sigma=0.0),
                deadline=0.14,
            ),
            "QuotaExpired",
            3,
        ),
        "free-machine": (
            dict(profile=MachineProfile.uniform(0.0, noise_sigma=0.3)), None, 5
        ),
    }

    @pytest.mark.parametrize(
        "setup,stopped_by,charged", INTERRUPTED.values(), ids=INTERRUPTED.keys()
    )
    def test_interrupted_read_leaves_the_reference_state(
        self, int_schema, setup, stopped_by, charged
    ):
        """A read cut short leaves the clock, totals, crossing and RNG
        position exactly where the per-block reference leaves them."""
        import numpy as np

        heap = make_relation("r1", int_schema, [(i, i % 3) for i in range(25)])
        setup = dict(setup)
        draw = setup.pop("draw", self.DRAW)
        reference = observed_read(
            lambda charger, injector: heap.read_blocks(draw, charger, injector),
            **setup,
        )
        rows, error, *_, counts, _, crossed_at, rng_state = reference
        if stopped_by is None:
            assert error is None and len(rows) == 5 * len(draw)
        else:
            assert error.startswith(stopped_by + ":") and rows is None
        assert dict(counts)["BLOCK_READ"] == charged
        if "deadline" in setup:
            assert crossed_at is not None
        profile = setup.get("profile", MachineProfile.sun3_60())
        if profile.noise_sigma == 0 or profile.rate(CostKind.BLOCK_READ) == 0:
            # Nothing was drawn, so nothing may have been rewound either.
            assert rng_state == np.random.default_rng(9).bit_generator.state
        assert observed_read(batched_read(heap, draw), **setup) == reference


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
class TestShardedReadReference:
    """``read_sharded`` ≡ ``read_blocks_decoded``: one loop, plus tallies."""

    DRAW = TestStorageReference.DRAW
    ROWS = [(i, i % 3) for i in range(25)]

    @staticmethod
    def _read(heap, draw, faulted=True):
        """What the read did observably."""
        return observed_read(batched_read(heap, draw), faulted)

    def _heaps(self, int_schema, strategy):
        plain = make_relation("r1", int_schema, self.ROWS)
        part = PartitionedHeapFile(
            "r1", int_schema, plain.block_size, partitions=3, strategy=strategy
        )
        part.load(self.ROWS)
        return plain, part

    @pytest.mark.parametrize("faulted", [True, False], ids=["faulted", "clean"])
    def test_sharded_read_agrees(self, int_schema, strategy, faulted):
        plain, part = self._heaps(int_schema, strategy)
        reference = self._read(plain, self.DRAW, faulted)
        # When there is an injector it really was consulted and fired.
        assert bool(reference[5]) is faulted
        assert self._read(part, self.DRAW, faulted) == reference

    def test_out_of_bounds_block_stops_both_reads_at_the_same_point(
        self, int_schema, strategy
    ):
        plain, part = self._heaps(int_schema, strategy)
        draw = [3, 0, plain.block_count + 2, 4]
        reference = self._read(plain, draw)
        _, error, _, _, counts, *_ = reference
        assert error is not None  # it did raise …
        # … after charging the two blocks ahead of the bad id, and nothing
        # behind it.
        assert dict(counts)["BLOCK_READ"] == 2
        assert self._read(part, draw) == reference
