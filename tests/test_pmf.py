import numpy as np
import pytest

from bittables.errors import ConditioningError
from bittables.pmf import (
    column_parameters,
    conditioned_cell_pmf,
    geometric_dist,
    geometric_pmf,
    mixed_column_sum_pmf,
    negative_binomial_dist,
    poisson_binomial_pmf,
    poisson_binomial_point,
)

from oracles import (
    conditioned_cell_marginal,
    conditioned_cell_masses_loop,
    mass_at,
    nb_pmf,
    poisson_binomial_convolve,
)


def test_geometric_pmf_closed_form():
    for q in (0.1, 0.5, 0.9):
        for k in range(8):
            assert abs(geometric_pmf(q, k) - (1 - q) * q**k) < 1e-15
    with pytest.raises(ValueError):
        geometric_pmf(1.0, 0)
    with pytest.raises(ValueError):
        geometric_pmf(0.5, -1)


def test_geometric_bit_split_identity():
    # a geometric draw decomposes into an independent low bit and a doubled
    # geometric(q^2) remainder: P(G=k) = P(bit = k mod 2) * P(G2 = k >> 1)
    qs = np.linspace(0.04, 0.96, 20)
    for q in qs:
        bit1 = q / (1.0 + q)
        for k in range(13):
            lhs = geometric_pmf(q, k)
            bit = bit1 if k % 2 else 1.0 - bit1
            rhs = bit * geometric_pmf(q * q, k // 2)
            assert abs(lhs - rhs) < 1e-12


def test_negative_binomial_matches_closed_form():
    for m in range(5):
        for q in (0.2, 0.7):
            d = negative_binomial_dist(m, q, 9)
            for k in range(10):
                assert abs(mass_at(d, k) - nb_pmf(m, q, k)) < 1e-13


def test_negative_binomial_dist_recurrence_consistent():
    d = negative_binomial_dist(3, 0.4, 12)
    assert len(d) == 13
    for k in range(13):
        assert abs(d[k] - nb_pmf(3, 0.4, k)) < 1e-13
    assert d.sum() < 1.0  # the tail past the cap is dropped
    # m=0 and q=0 degenerate to a point mass at zero
    for d0 in (negative_binomial_dist(0, 0.4, 5), negative_binomial_dist(2, 0.0, 5)):
        assert np.array_equal(d0, [1.0])


def test_geometric_dist_truncation():
    d = geometric_dist(0.3, 9)
    assert d.shape == (10,)
    assert abs(d.sum() - (1 - 0.3**10)) < 1e-12
    assert d.min() >= 0.0 and d.max() <= 1.0
    assert np.array_equal(geometric_dist(0.0, 9), [1.0])


def test_poisson_binomial_against_convolution():
    rng = np.random.default_rng(417)
    for _ in range(300):
        n = int(rng.integers(1, 65))
        ps = rng.random(n)
        k = int(rng.integers(0, n + 1))
        a = poisson_binomial_point(ps, k)
        b = poisson_binomial_convolve(ps, k)
        assert abs(a - b) <= 1e-10


def test_poisson_binomial_edge_cases():
    assert poisson_binomial_point(np.zeros(0), 0) == 1.0
    assert poisson_binomial_point(np.zeros(0), 3) == 0.0
    ps = np.array([1.0, 1.0, 0.0])
    assert abs(poisson_binomial_point(ps, 2) - 1.0) < 1e-12
    # subset selection and validation on the wrapped form
    p = np.array([0.2, 0.9, 0.5, 0.5])
    assert abs(poisson_binomial_pmf(p, 1, js=[0, 1]) - (0.2 * 0.1 + 0.8 * 0.9)) < 1e-12
    with pytest.raises(ValueError):
        poisson_binomial_pmf(p, 5)
    with pytest.raises(ValueError):
        poisson_binomial_pmf([1.2], 0)


def test_mixed_column_sum_enumeration():
    # check against direct summation of products of the two cell laws
    q, cap = 0.45, 8
    for n_even in range(3):
        for n_plain in range(3):
            d = mixed_column_sum_pmf(q, n_even, n_plain, cap)
            assert len(d) <= cap + 1
            for s in range(cap + 1):
                acc = 0.0
                for e in range(0, s + 1, 2):
                    acc += nb_pmf(n_even, q * q, e // 2) * nb_pmf(n_plain, q, s - e)
                assert abs(mass_at(d, s) - acc) < 1e-12
    assert np.array_equal(mixed_column_sum_pmf(q, 0, 0, 4), [1.0, 0.0, 0.0, 0.0, 0.0])


def test_conditioned_cell_pmf_bayes():
    # conditional law must equal base(x) * rest(c-x) / total(c) and normalise
    q, c_res = 0.35, 7
    for even_cell in (False, True):
        d = conditioned_cell_pmf(even_cell, q, 1, 2, c_res)
        assert d.shape == (c_res + 1,)
        assert abs(d.sum() - 1.0) < 1e-9
        if even_cell:
            assert not d[1::2].any()
    with pytest.raises(ConditioningError):
        conditioned_cell_pmf(True, 0.4, 0, 0, 3)  # odd sum from even cells only
    with pytest.raises(ConditioningError):
        conditioned_cell_pmf(False, 0.4, 0, 0, -1)


def test_conditioned_cell_pmf_bit_identical_to_loop():
    # the vectorised product must reproduce the per-x loop float for float,
    # or the approx draws would drift
    compared = unreachable = 0
    for even_cell in (False, True):
        for q in (0.1, 0.5, 0.9):
            for rest_even in range(5):
                for rest_plain in range(5):
                    for c_res in range(41):
                        args = (even_cell, q, rest_even, rest_plain, c_res)
                        try:
                            want = conditioned_cell_masses_loop(*args)
                        except ConditioningError:
                            with pytest.raises(ConditioningError):
                                conditioned_cell_pmf(*args)
                            unreachable += 1
                            continue
                        got = conditioned_cell_pmf(*args)
                        assert np.array_equal(got, want), args
                        compared += 1
    assert compared > 5000 and unreachable > 0


def test_conditioned_cell_marginal_wrapper():
    q = 0.5
    d = conditioned_cell_pmf(False, q, 1, 1, 5)
    for x in range(6):
        assert conditioned_cell_marginal("plain", q, 1, 1, 5, x) == d[x]
    assert conditioned_cell_marginal("plain", q, 1, 1, 5, 9) == 0.0
    with pytest.raises(ValueError):
        conditioned_cell_marginal("weird", q, 1, 1, 5, 0)


def test_column_parameters_expectations():
    # integer: open-cell geometric sum mean equals the column target
    scheme = column_parameters([4, 0, 2], [1, 0, 0], 3)
    open_cells = np.array([2, 3, 3])
    for j, cj in enumerate([4, 0, 2]):
        qj = scheme.q[j]
        mean = open_cells[j] * qj / (1 - qj) if qj > 0 else 0.0
        assert abs(mean - cj) < 1e-12
    with pytest.raises(ValueError):
        column_parameters([1], [3], 3)  # no open cells left
    with pytest.raises(ValueError):
        column_parameters([1, 1], [0], 3)  # shapes differ

