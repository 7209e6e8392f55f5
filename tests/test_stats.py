import numpy as np
import pytest
from scipy.stats import chi2

from bittables.stats import UniformityReport, chi_square_threshold, chi_square_uniformity


def test_statistic_hand_value():
    # counts (60, 40) against expectation 50: (10^2 + 10^2) / 50 = 4.0
    rep = chi_square_uniformity([60, 40], 2)
    assert rep.statistic == 4.0
    assert rep.df == 1 and rep.expected == 50.0
    assert rep.total == 100 and rep.categories == 2


def test_perfectly_uniform_counts():
    rep = chi_square_uniformity([25, 25, 25, 25], 4)
    assert rep.statistic == 0.0 and rep.passed


def test_short_counts_are_padded():
    # two missing categories count as zero observations
    rep = chi_square_uniformity([10, 10], 4)
    assert rep.counts == (10, 10, 0, 0)
    assert rep.statistic == 20.0
    assert rep.df == 3
    assert not rep.passed


def test_threshold_tracks_reference_quantiles():
    # the cube-root normal approximation stays within a percent of the
    # reference quantile for moderate df
    for df in (5, 10, 21, 40, 100):
        for alpha in (0.05, 0.01):
            approx = chi_square_threshold(df, alpha)
            exact = chi2.ppf(1 - alpha, df)
            assert abs(approx - exact) / exact < 0.01, (df, alpha)


def test_threshold_monotone_in_df():
    ts = [chi_square_threshold(df, 0.01) for df in range(1, 30)]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        chi_square_uniformity([1, 2, 3], 2)  # more counts than categories
    with pytest.raises(ValueError):
        chi_square_uniformity([1, -1], 2)
    with pytest.raises(ValueError):
        chi_square_uniformity([0, 0], 2)
    with pytest.raises(ValueError):
        chi_square_uniformity([1, 1], 1)
    with pytest.raises(TypeError):
        chi_square_uniformity([1.5, 2], 2)  # used to report total 3 against expected 1.75
    assert chi_square_uniformity(np.array([3, 5]), 2) == chi_square_uniformity([3, 5], 2)
    with pytest.raises(ValueError):
        chi_square_threshold(0, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(3, 0.0)


def test_report_round_trip():
    rep = chi_square_uniformity([30, 20, 25], 3, significance=0.05)
    d = rep.as_dict()
    assert d["counts"] == [30, 20, 25]
    assert d["passed"] == rep.passed
    assert d["threshold"] == rep.threshold
    assert isinstance(rep, UniformityReport)
