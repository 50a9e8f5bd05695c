"""Estimators and run-time selectivity estimation (systems S8–S9)."""

from repro.estimation.aggregates import (
    COUNT,
    AggregateSpec,
    StreamingMoments,
    avg_from_sum_count,
    avg_of,
    count,
    srs_sum_estimate,
    sum_of,
)

from repro.estimation.count_estimators import (
    cluster_count_estimate,
    combine_term_estimates,
    srs_count_estimate,
    srs_count_variance,
    srs_selectivity_variance,
)
from repro.estimation.estimate import Estimate, normal_quantile
from repro.estimation.goodman import (
    chao1,
    good_turing_coverage,
    goodman_estimate,
    goodman_raw,
    jackknife1,
)
from repro.estimation.selectivity import (
    DEFAULT_ZERO_FIX_BETA,
    SelectivityTracker,
    StageLedger,
    StageObservation,
)

__all__ = [
    "AggregateSpec",
    "COUNT",
    "DEFAULT_ZERO_FIX_BETA",
    "Estimate",
    "SelectivityTracker",
    "StageLedger",
    "StageObservation",
    "StreamingMoments",
    "avg_from_sum_count",
    "avg_of",
    "chao1",
    "cluster_count_estimate",
    "combine_term_estimates",
    "count",
    "good_turing_coverage",
    "goodman_estimate",
    "goodman_raw",
    "jackknife1",
    "normal_quantile",
    "srs_count_estimate",
    "srs_sum_estimate",
    "sum_of",
    "srs_count_variance",
    "srs_selectivity_variance",
]
