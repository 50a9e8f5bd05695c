"""Sampling substrate: block samplers and the point-space model (system S7)."""

from repro.sampling.point_space import PointSpace
from repro.sampling.sampler import BlockSampler, blocks_for_fraction

__all__ = [
    "BlockSampler",
    "PointSpace",
    "blocks_for_fraction",
]
