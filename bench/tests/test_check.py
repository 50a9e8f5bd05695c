"""The output check, the determinism guard and the compare verdicts."""

from __future__ import annotations

from dataclasses import replace

from bench.check import OpResult, first_difference, malformed, usable
from bench.compare import spread, verdict

GOOD = OpResult(
    outcome="estimate",
    value=1_000.0,
    variance=400.0,
    sample_points=500,
    population_points=10_000,
    blocks_read=100,
    blocks_in_quota=90,
    stages=3,
    charged_s=9.5,
    late=False,
    utilization=0.9,
    output_rows=50,
)


def test_an_estimate_within_ten_standard_errors_is_accepted():
    assert malformed(GOOD, 1_150.0) is None
    assert "standard errors" in malformed(GOOD, 1_250.0)


def test_malformed_numbers_are_rejected():
    assert "not finite" in malformed(replace(GOOD, value=float("nan")), 1_000.0)
    assert "variance" in malformed(replace(GOOD, variance=float("inf")), 1_000.0)


def test_a_homogeneous_small_sample_may_estimate_all_or_nothing():
    nothing = replace(GOOD, value=0.0, variance=0.0)
    assert malformed(nothing, 100.0) is None  # expects 5 hits in 500 points
    assert malformed(nothing, 5_000.0) is not None  # expects 250: broken
    everything = replace(GOOD, value=10_000.0, variance=0.0)
    assert malformed(everything, 9_900.0) is None
    assert malformed(everything, 5_000.0) is not None


def test_usable_means_an_answer_in_time():
    assert usable(GOOD)
    assert not usable(replace(GOOD, value=None, variance=None))
    assert usable(replace(GOOD, outcome="degraded"))
    assert not usable(replace(GOOD, outcome="answered", late=True))
    assert not usable(replace(GOOD, outcome="shed", value=None, variance=None))


def test_the_determinism_guard_names_the_field_that_moved():
    assert first_difference([GOOD, GOOD], [GOOD, GOOD]) is None
    moved = first_difference([GOOD, GOOD], [GOOD, replace(GOOD, blocks_read=101)])
    assert moved == "op 1: blocks_read: 100 != 101"
    assert "1 ops against 2" in first_difference([GOOD], [GOOD, GOOD])


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10)[0] == "regressed"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10)[0] == "regressed"
    noisy = [8.0, 12.0, 9.0, 13.0]
    assert spread(noisy) > 0.10
    assert verdict(noisy, [10.0, 10.1, 9.9, 10.0], "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every new run beats every base run.
    assert verdict(noisy, [5.0, 5.1, 4.9, 5.0], "lower", 0.10)[0] == "ok"
