"""Bit-identity pins for the buffer pool (invariant 9).

The pool is a wall-clock structure and nothing else: charged simulated
costs, estimates, stage schedules, and per-session trace streams must not
depend on what it holds — cold, warm, shared by interleaved sessions,
faulted or not. Every plan reads through a pool, so "pool off" is played
by ``BufferPool(capacity=1)``: every read is a miss plus an eviction, i.e.
the pool never saves a single materialization. At the storage level the
pooled read is pinned against the pool-less reference
``HeapFile.read_blocks`` in rows, charges and injector consultations —
also when a deadline, a fault or a bad block id cuts the read short, down
to the deadline crossing and the RNG position it leaves — and
a partitioned relation's ``read_sharded`` against the plain pooled read
(invariant 10 at the same level: one loop, one set of pool keys). The
contract is checked on the engine and on the row-at-a-time stage oracle
(ids ``vectorized`` / ``python``), over the three canonical query shapes,
a 50-session interleave stress, and injected-fault replay;
``test_bufferpool.py`` covers the pool's own mechanics.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import Database
from repro.core.options import QueryOptions
from repro.errors import InjectedFault, QuotaExpired, StorageError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.observability import RecordingSink
from repro import caches
from repro.relational import cmp, join, rel
from repro.server.workload import demo_database
from repro.storage.bufferpool import BufferPool
from repro.storage.partitioned import PARTITION_STRATEGIES, PartitionedHeapFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind, MachineProfile
from tests.conftest import make_relation
from tests.rowwise_oracle import rowwise_stages


@pytest.fixture(autouse=True)
def fresh_caches():
    caches.get("plans").clear()
    caches.get("bufferpool").clear()
    yield
    caches.get("plans").clear()
    caches.get("bufferpool").clear()


def make_db(seed: int = 11) -> Database:
    db = Database(seed=seed)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 97) for i in range(12_000)],
    )
    db.create_relation(
        "r2",
        [("a", "int"), ("c", "int")],
        rows=[(i % 13, i) for i in range(3_000)],
    )
    return db


QUERIES = [
    (rel("r1").where(cmp("a", "<", 10)), 4.0),
    (rel("r1").where(cmp("a", "<", 10)).where(cmp("id", ">", 100)), 4.0),
    (join(rel("r1"), rel("r2"), on=["a"]), 900.0),
]


def thrashing_pool() -> BufferPool:
    """The "pool off" stand-in: nothing read is ever found resident."""
    return BufferPool(capacity=1)


def run_signature(
    db: Database, expr, quota: float, seed: int, rowwise: bool = False, **options
):
    """Everything observable about a run, traces included."""
    sink = RecordingSink()
    with rowwise_stages(rowwise):
        result = db.estimate(
            expr,
            quota=quota,
            seed=seed,
            options=QueryOptions(sink=sink, **options),
        )
    report = result.report
    return (
        None if report.estimate is None else (
            report.estimate.value,
            report.estimate.variance,
            report.estimate.sample_points,
        ),
        [
            (s.index, s.fraction, s.duration, s.blocks_read, s.new_points)
            for s in report.stages
        ],
        report.termination,
        sum(s.duration for s in report.stages),
        [e.to_dict() for e in sink],
    )


@pytest.mark.parametrize("rowwise", [True, False], ids=["python", "vectorized"])
@pytest.mark.parametrize("expr,quota", QUERIES, ids=["select", "conjunct", "join"])
class TestOnOffIdentity:
    def test_pool_on_equals_pool_off(self, rowwise, expr, quota):
        thrash = thrashing_pool()
        off = run_signature(
            make_db(), expr, quota, seed=5, rowwise=rowwise, bufferpool=thrash
        )
        assert thrash.info().hits == 0 and thrash.info().evictions > 0
        caches.get("plans").clear()
        on = run_signature(
            make_db(), expr, quota, seed=5, rowwise=rowwise,
            bufferpool=BufferPool(),
        )
        assert on == off

    def test_warm_pool_equals_cold_pool(self, rowwise, expr, quota):
        """A pool full of this very query's blocks changes nothing."""
        db = make_db()
        pool = BufferPool()
        opts = dict(rowwise=rowwise, bufferpool=pool)
        cold = run_signature(db, expr, quota, seed=5, **opts)
        assert pool.info().misses > 0  # the run really went through it
        caches.get("plans").clear()
        warm = run_signature(db, expr, quota, seed=5, **opts)
        assert pool.info().hits > 0  # ... and the replay really hit
        assert warm == cold


class TestSharedPoolStress:
    """The session-stress mix over one shared pool = each session alone on
    a pool that never holds anything for it, bit for bit."""

    SESSIONS = 50

    @staticmethod
    def _spec(i: int) -> dict:
        from repro.estimation.aggregates import sum_of
        from repro.relational.expression import intersect, select

        kind = i % 4
        if kind == 0:
            expr, aggregate = select(rel("r1"), cmp("a", "<", 100 + 20 * i)), None
        elif kind == 1:
            expr, aggregate = select(rel("r2"), cmp("a", ">", 10 * i)), None
        elif kind == 2:
            expr, aggregate = rel("r1"), sum_of("b")
        else:
            expr, aggregate = intersect(rel("r1"), rel("r2")), None
        return {
            "expr": expr,
            "quota": 0.5 + (i % 5) * 0.5,
            "seed": 1_000 + i,
            "aggregate": aggregate,
        }

    @staticmethod
    def _signature(result) -> tuple:
        report = result.report
        estimate = report.estimate
        return (
            None if estimate is None else estimate.value,
            None if estimate is None else estimate.variance,
            report.termination,
            len(report.stages),
            report.total_blocks,
            tuple((s.fraction, s.duration, s.blocks_read) for s in report.stages),
        )

    def test_interleaved_shared_pool_matches_pool_off(self):
        db_off = demo_database(seed=29, tuples=1_200, analyze=False)
        baseline = {}
        for i in range(self.SESSIONS):
            session = db_off.open_session(
                bufferpool=thrashing_pool(), **self._spec(i)
            )
            baseline[i] = self._signature(session.run())

        db_on = demo_database(seed=29, tuples=1_200, analyze=False)
        pool = BufferPool()
        sessions = {
            i: db_on.open_session(bufferpool=pool, **self._spec(i))
            for i in range(self.SESSIONS)
        }
        order = list(range(self.SESSIONS))
        random.Random(7).shuffle(order)
        interleaved = {i: self._signature(sessions[i].run()) for i in order}
        assert interleaved == baseline
        info = pool.info()
        assert info.hits > 0  # the sessions really shared blocks


class TestFaults:
    def test_faulted_read_is_never_admitted(self, int_schema):
        heap = make_relation("r1", int_schema, [(i, 0) for i in range(25)])
        pool = BufferPool(capacity=8)
        charger = CostCharger(MachineProfile.uniform(0.0))
        import numpy as np

        injector = FaultInjector(
            FaultPlan(read_error_prob=1.0), np.random.default_rng(3)
        )
        with pytest.raises(InjectedFault):
            heap.read_blocks_decoded([0, 1], charger, injector, pool=pool)
        assert pool.info().currsize == 0  # nothing poisoned the cache
        assert pool.info().misses == 0

    def test_partial_batch_admits_only_preceding_blocks(self, int_schema):
        heap = make_relation("r1", int_schema, [(i, 0) for i in range(25)])
        pool = BufferPool(capacity=8)
        charger = CostCharger(MachineProfile.uniform(0.0))
        import numpy as np

        # max_injections=1 with p=1: the very first block read faults,
        # later reads pass — so a retry-style second call admits cleanly.
        injector = FaultInjector(
            FaultPlan(read_error_prob=1.0, max_injections=1),
            np.random.default_rng(3),
        )
        with pytest.raises(InjectedFault):
            heap.read_blocks_decoded([0, 1], charger, injector, pool=pool)
        assert pool.info().currsize == 0
        rows, _ = heap.read_blocks_decoded([0, 1], charger, injector, pool=pool)
        assert len(rows) == 10
        assert pool.info().currsize == 2

    @pytest.mark.parametrize(
        "rowwise", [True, False], ids=["python", "vectorized"]
    )
    def test_chaos_replay_identical_pool_on_and_off(self, rowwise):
        plan = FaultPlan(
            read_error_prob=0.03,
            slow_read_prob=0.05,
            stage_overrun_prob=0.20,
            stage_overrun_seconds=0.02,
            seed_salt=7,
        )
        expr, quota = QUERIES[0]
        off = run_signature(
            make_db(), expr, quota, seed=5, rowwise=rowwise,
            bufferpool=thrashing_pool(), fault_plan=plan,
        )
        caches.get("plans").clear()
        on = run_signature(
            make_db(), expr, quota, seed=5, rowwise=rowwise,
            bufferpool=BufferPool(), fault_plan=plan,
        )
        assert on == off


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


def pooled_read(heap, pool, draw):
    """``heap``'s engine-facing read of ``draw`` through ``pool``."""
    read = getattr(heap, "read_sharded", heap.read_blocks_decoded)

    def run(charger, injector):
        rows, batch, *_ = read(draw, charger, injector, pool=pool)
        assert batch.rows is rows
        return rows

    return run


class TestStorageReference:
    """``_read_pooled`` ≡ the pool-less ``read_blocks`` loop, block for block."""

    DRAW = [3, 0, 4, 0, 2]  # includes a repeat: a hit inside one batch

    def test_pooled_read_equals_poolless_reference(self, int_schema):
        heap = make_relation("r1", int_schema, [(i, i % 3) for i in range(25)])
        reference = observed_read(
            lambda charger, injector: heap.read_blocks(self.DRAW, charger, injector)
        )
        assert reference[5]  # the injector really was consulted and fired
        pool = BufferPool()
        assert observed_read(pooled_read(heap, pool, self.DRAW)) == reference  # cold
        assert pool.info().misses == 4 and pool.info().hits == 1
        assert observed_read(pooled_read(heap, pool, self.DRAW)) == reference  # warm
        assert pool.info().hits == 6
        thrashed = observed_read(pooled_read(heap, thrashing_pool(), self.DRAW))
        assert thrashed == reference

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
        pool = BufferPool()
        for target in (pool, pool, thrashing_pool()):  # cold, warm, thrashing
            assert observed_read(pooled_read(heap, target, draw), **setup) == reference


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
class TestShardedReadReference:
    """``read_sharded`` ≡ ``read_blocks_decoded``: one loop, one key space."""

    DRAW = TestStorageReference.DRAW
    ROWS = [(i, i % 3) for i in range(25)]

    @staticmethod
    def _read(heap, pool, draw, faulted=True):
        """What the read did observably, plus what it left in ``pool``."""
        return observed_read(pooled_read(heap, pool, draw), faulted), pool.info()

    def _heaps(self, int_schema, strategy):
        plain = make_relation("r1", int_schema, self.ROWS)
        part = PartitionedHeapFile(
            "r1", int_schema, plain.block_size, partitions=3, strategy=strategy
        )
        part.load(self.ROWS)
        return plain, part

    @pytest.mark.parametrize("faulted", [True, False], ids=["faulted", "clean"])
    @pytest.mark.parametrize("capacity", [1, 4096], ids=["capacity-1", "roomy"])
    def test_cold_then_warm_reads_agree(
        self, int_schema, strategy, capacity, faulted
    ):
        plain, part = self._heaps(int_schema, strategy)
        plain_pool, part_pool = BufferPool(capacity), BufferPool(capacity)
        for _ in ("cold", "warm"):
            reference = self._read(plain, plain_pool, self.DRAW, faulted)
            # When there is an injector it really was consulted and fired.
            assert bool(reference[0][5]) is faulted
            assert self._read(part, part_pool, self.DRAW, faulted) == reference

    def test_out_of_bounds_block_stops_both_reads_at_the_same_point(
        self, int_schema, strategy
    ):
        plain, part = self._heaps(int_schema, strategy)
        draw = [3, 0, plain.block_count + 2, 4]
        reference = self._read(plain, BufferPool(), draw)
        (_, error, _, _, counts, *_), pooled = reference
        assert error is not None  # it did raise …
        # … after charging and admitting the two blocks ahead of the bad
        # id, and nothing behind it.
        assert dict(counts)["BLOCK_READ"] == 2
        assert (pooled.misses, pooled.currsize) == (2, 2)
        assert self._read(part, BufferPool(), draw) == reference
