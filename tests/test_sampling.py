"""Tests for block samplers and the point-space model."""

import numpy as np
import pytest

from repro.errors import EstimationError, SamplingExhausted
from repro.sampling.point_space import PointSpace
from repro.sampling.sampler import BlockSampler, blocks_for_fraction
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
