"""Tests for block samplers and the point-space model."""

import random

import numpy as np
import pytest

from repro.costmodel.model import CostModel
from repro.engine.plan import StagedPlan
from repro.errors import EstimationError, SamplingExhausted
from repro.relational.expression import join, project, rel, union
from repro.sampling.point_space import PointSpace
from repro.sampling.sampler import BlockSampler, blocks_for_fraction
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation


@pytest.fixture
def relation(int_schema):
    # block_size 16 → blocking factor 2 → 40 tuples occupy 20 blocks
    return make_relation("r", int_schema, [(i, i) for i in range(40)], block_size=16)


class TestBlockSampler:
    def test_draws_without_replacement(self, relation, rng):
        sampler = BlockSampler(relation, rng)
        seen = []
        for _ in range(4):
            seen.extend(sampler.draw(5))
        assert sorted(seen) == list(range(20))
        assert sampler.exhausted

    def test_draw_counts_tracked(self, relation, rng):
        sampler = BlockSampler(relation, rng)
        sampler.draw(3)
        assert sampler.drawn_blocks == 3
        assert sampler.remaining_blocks == 17
        assert sampler.drawn_fraction == pytest.approx(3 / 20)

    def test_overdraw_raises(self, relation, rng):
        sampler = BlockSampler(relation, rng)
        with pytest.raises(SamplingExhausted):
            sampler.draw(21)

    def test_negative_draw_raises(self, relation, rng):
        with pytest.raises(SamplingExhausted):
            BlockSampler(relation, rng).draw(-1)

    def test_permutation_is_seeded(self, relation):
        a = BlockSampler(relation, np.random.default_rng(1)).draw(20)
        b = BlockSampler(relation, np.random.default_rng(1)).draw(20)
        assert a == b

    def test_different_seeds_differ(self, relation):
        a = BlockSampler(relation, np.random.default_rng(1)).draw(20)
        b = BlockSampler(relation, np.random.default_rng(2)).draw(20)
        assert a != b

    def test_uniformity_over_first_draw(self, relation):
        counts = np.zeros(20)
        for seed in range(400):
            sampler = BlockSampler(relation, np.random.default_rng(seed))
            counts[sampler.draw(1)[0]] += 1
        # Each block should appear roughly 20 times as the first draw.
        assert counts.min() > 5
        assert counts.max() < 45


def relation_of(int_schema, blocks: int):
    """A relation of exactly ``blocks`` blocks (two tuples per block)."""
    rows = [(i, i) for i in range(2 * blocks)]
    return make_relation("r", int_schema, rows, block_size=16)


class TestLazyDraw:
    """The lazy Fisher–Yates draw: block cluster sampling without
    replacement, one pick per block handed out, from the scan's own
    stream."""

    def test_split_draws_equal_one_draw(self, relation):
        splits = random.Random(7)
        for seed in range(40):
            k = splits.randint(0, relation.block_count)
            cuts = sorted(splits.randint(0, k) for _ in range(splits.randint(0, 4)))
            sampler = BlockSampler(relation, np.random.default_rng(seed))
            pieces = []
            for size in np.diff([0, *cuts, k]):
                pieces.extend(sampler.draw(int(size)))
            whole = BlockSampler(relation, np.random.default_rng(seed)).draw(k)
            assert pieces == whole, (seed, cuts, k)

    def test_ordered_two_prefixes_are_uniform(self, int_schema):
        # 6 blocks → 30 ordered pairs, each with probability 1/30.
        six = relation_of(int_schema, 6)
        seeds = 6000
        counts: dict[tuple[int, int], int] = {}
        for seed in range(seeds):
            pair = tuple(BlockSampler(six, np.random.default_rng(seed)).draw(2))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 30 and all(a != b for a, b in counts)
        expected = seeds / 30
        chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
        assert chi2 < 58.30, chi2  # χ²(29) upper 0.1 % point

    @pytest.mark.parametrize("blocks", [0, 1, 2, 7])
    def test_drawing_everything_is_a_permutation(self, int_schema, blocks):
        relation = relation_of(int_schema, blocks)
        assert relation.block_count == blocks
        for seed in range(20):
            sampler = BlockSampler(relation, np.random.default_rng(seed))
            assert sorted(sampler.draw(blocks)) == list(range(blocks))
            assert sampler.exhausted
            with pytest.raises(SamplingExhausted):
                sampler.draw(1)

    def test_restore_replays_then_continues_the_stream(self, relation):
        for seed in range(10):
            sampler = BlockSampler(relation, np.random.default_rng(seed))
            first = sampler.draw(3)
            token = sampler.snapshot()
            discarded = sampler.draw(4)
            sampler.restore(token)
            retried = sampler.draw(6)
            assert retried[:4] == discarded
            straight = BlockSampler(relation, np.random.default_rng(seed))
            assert first + retried == straight.draw(3) + straight.draw(6)
            assert sampler.drawn_block_ids == first + retried

    def test_priced_sampler_draws_nothing(self, relation):
        sampler = BlockSampler(relation, None)
        assert sampler.draw(0) == []
        with pytest.raises(SamplingExhausted):
            sampler.draw(1)
        assert sampler.drawn_blocks == 0


class TestPerScanStream:
    """Each scan draws from its own stream, spawned at lowering, so the
    sample depends on the session seed and the scan alone."""

    @staticmethod
    def plan(catalog, expr, seed: int, noise_sigma: float = 0.0) -> StagedPlan:
        rng = np.random.default_rng(seed)
        profile = MachineProfile.sun3_60(noise_sigma=noise_sigma)
        charger = CostCharger(profile, rng=rng)
        return StagedPlan(expr, catalog, charger, CostModel(), rng)

    def test_lowering_leaves_the_session_generator_alone(self, small_catalog):
        for expr in (
            rel("r1"),
            join(rel("r1"), rel("r2"), on="a"),
            union(rel("r1"), rel("r2")),
        ):
            rng = np.random.default_rng(3)
            before = rng.bit_generator.state
            charger = CostCharger(MachineProfile.sun3_60(), rng=rng)
            plan = StagedPlan(expr, small_catalog, charger, CostModel(), rng)
            assert plan.scans and rng.bit_generator.state == before

    def test_jitter_and_bootstrap_do_not_change_the_sample(self, small_catalog):
        expr = project(join(rel("r1"), rel("r2"), on="a"), ["a"])
        quiet = self.plan(small_catalog, expr, seed=11)
        noisy = self.plan(small_catalog, expr, seed=11, noise_sigma=0.3)
        for fraction in (0.1, 0.2, 0.1):
            quiet.advance_stage(fraction)
            noisy.advance_stage(fraction)
            noisy.estimate()  # Goodman's bootstrap draws from the session RNG
        assert quiet.charger.clock.now() != noisy.charger.clock.now()
        for a, b in zip(quiet.scans, noisy.scans, strict=True):
            assert a.sampler.drawn_block_ids == b.sampler.drawn_block_ids


class TestBlocksForFraction:
    def test_zero_fraction_is_zero_blocks(self, relation):
        assert blocks_for_fraction(relation, 0.0) == 0

    def test_small_positive_fraction_gives_one_block(self, relation):
        assert blocks_for_fraction(relation, 1e-6) == 1

    def test_rounding(self, relation):
        assert blocks_for_fraction(relation, 0.5) == 10
        assert blocks_for_fraction(relation, 0.524) == 10
        assert blocks_for_fraction(relation, 0.56) == 11


class TestPointSpace:
    def test_totals(self):
        space = PointSpace(("r1", "r2"), (100, 200), (20, 40))
        assert space.total_points == 20_000
        assert space.total_space_blocks == 800
        assert space.dimensions == 2

    def test_duplicate_relations_rejected(self):
        with pytest.raises(EstimationError, match="distinct"):
            PointSpace(("r1", "r1"), (10, 10), (2, 2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EstimationError):
            PointSpace(("r1",), (10, 20), (2,))

    def test_empty_relation_rejected(self):
        with pytest.raises(EstimationError):
            PointSpace(("r1",), (0,), (1,))
