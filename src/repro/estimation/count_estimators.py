"""COUNT(E) estimators of [HoOT 88] (reviewed in Section 2 of the paper).

Two sampling plans, two estimators:

* **Simple random sampling of points** — ``û(E) = N · (y / m)`` where ``N``
  is the point-space size, ``m`` the sampled points and ``y`` the sampled
  1-points. Unbiased and consistent.
* **Cluster sampling of space blocks** — ``Ŷ_b(E) = B · (Σ y_i / b)`` where
  ``B`` is the total space blocks, ``b`` the sampled space blocks, and
  ``y_i`` the 1-points inside the i-th sampled space block.

Both variance estimators use the standard without-replacement forms
([Coch 77]); the paper's prototype deliberately *approximates* the cluster
variance with the SRS formula because computing the true cluster variance
"needs to sort the output tuples … too expensive" (Section 3.3) — we provide
both so the approximation itself is testable (ablation A4 in DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EstimationError
from repro.estimation.estimate import Estimate


def srs_count_estimate(population: int, sampled: int, ones: int) -> Estimate:
    """``û(E)`` with the SRS-without-replacement variance estimate.

    ``population`` = N points in the point space, ``sampled`` = m points
    drawn, ``ones`` = y sampled points with value 1.
    """
    _validate(population, sampled, ones)
    if sampled == population:
        return Estimate(
            value=float(ones),
            variance=0.0,
            sample_points=sampled,
            population_points=population,
            exact=True,
        )
    p_hat = ones / sampled
    variance = srs_count_variance(population, sampled, p_hat)
    return Estimate(
        value=population * p_hat,
        variance=variance,
        sample_points=sampled,
        population_points=population,
    )


def srs_count_variance(population: int, sampled: int, p_hat: float) -> float:
    """Estimated Var(û) under SRS without replacement.

    ``Var(p̂) = p̂(1−p̂)/(m−1) · (1 − m/N)`` (unbiased sample form), scaled by
    ``N²``. With one sample point the variance is unknowable; we return the
    worst case ``p̂=1/2`` bound so early stages stay conservative.
    """
    if sampled <= 1:
        p_hat = 0.5
        denom = 1
    else:
        denom = sampled - 1
    fpc = 1.0 - sampled / population
    return population * population * p_hat * (1.0 - p_hat) / denom * max(fpc, 0.0)


def srs_selectivity_variance(
    selectivity: float, sampled: int, not_yet_sampled: int
) -> float:
    """The paper's equation for ``Var(sel_i)`` (Section 3.3, end).

    ``Var(sel) = sel(1−sel)(N_i − m_i) / (m_i (N_i − 1))`` where ``m_i`` is
    the points the i-th stage would sample and ``N_i`` the points not yet
    included in previous stages.
    """
    if sampled <= 0:
        raise EstimationError("variance needs at least one sample point")
    if not_yet_sampled <= 1 or sampled >= not_yet_sampled:
        return 0.0
    sel = min(max(selectivity, 0.0), 1.0)
    return sel * (1.0 - sel) * (not_yet_sampled - sampled) / (
        sampled * (not_yet_sampled - 1)
    )


def cluster_count_estimate(
    total_space_blocks: int, block_ones: Sequence[int]
) -> Estimate:
    """``Ŷ_b(E)`` with the cluster (space-block) variance estimate.

    ``block_ones`` holds ``y_i`` for each sampled space block. The variance
    estimator is the standard one-stage cluster form
    ``B² (1 − b/B) s_y² / b`` with ``s_y²`` the sample variance of the
    ``y_i``.
    """
    b = len(block_ones)
    if b == 0:
        raise EstimationError("cluster estimate needs at least one space block")
    if total_space_blocks < b:
        raise EstimationError(
            f"sampled {b} space blocks out of {total_space_blocks}"
        )
    if any(y < 0 for y in block_ones):
        raise EstimationError("negative 1-counts in space blocks")
    mean = sum(block_ones) / b
    value = total_space_blocks * mean
    if b == total_space_blocks:
        return Estimate(
            value=float(sum(block_ones)),
            variance=0.0,
            sample_points=b,
            population_points=total_space_blocks,
            exact=True,
        )
    if b == 1:
        # One cluster gives no variance information; signal maximal
        # uncertainty via the single observation's square.
        s2 = float(block_ones[0]) ** 2 if block_ones[0] else 1.0
    else:
        s2 = sum((y - mean) ** 2 for y in block_ones) / (b - 1)
    fpc = 1.0 - b / total_space_blocks
    variance = total_space_blocks * total_space_blocks * fpc * s2 / b
    return Estimate(
        value=value,
        variance=variance,
        sample_points=b,
        population_points=total_space_blocks,
    )


def _validate(population: int, sampled: int, ones: int) -> None:
    if population <= 0:
        raise EstimationError(f"population must be positive: {population}")
    if sampled <= 0:
        raise EstimationError(f"sample size must be positive: {sampled}")
    if sampled > population:
        raise EstimationError(f"sample {sampled} exceeds population {population}")
    if not 0 <= ones <= sampled:
        raise EstimationError(f"1-count {ones} outside [0, {sampled}]")


def combine_term_estimates(
    terms: Sequence[tuple[int, Estimate]],
) -> Estimate:
    """Combine signed per-term estimates into the COUNT(E) estimate.

    Inclusion–exclusion gives ``COUNT(E) = Σ coef_k · COUNT(term_k)``; the
    combined variance sums ``coef² · Var`` (terms share samples, so this
    ignores covariances — a documented approximation; the terms' common
    blocks make them positively correlated, so the reported variance of
    differences is, if anything, conservative).
    """
    if not terms:
        raise EstimationError("no terms to combine")
    value = sum(coef * est.value for coef, est in terms)
    variance = sum(coef * coef * est.variance for coef, est in terms)
    return Estimate(
        value=value,
        variance=variance,
        sample_points=max(est.sample_points for _, est in terms),
        population_points=max(est.population_points for _, est in terms),
        exact=all(est.exact for _, est in terms),
    )

