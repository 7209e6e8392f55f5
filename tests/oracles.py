"""Brute-force reference oracles, independent of the package implementations.

Everything here trades speed for obviousness.  The package counts tables
column by column; these oracles go row by row (and the Latin count runs a
permutation DP) so agreement is a real cross-check, not a tautology.
"""

import itertools
from math import comb

import numpy as np


def _as_mask(mask, m, n):
    if mask is None:
        return np.zeros((m, n), dtype=bool)
    return np.asarray(mask, dtype=bool)


def iter_integer_tables(r, c, zero=None, even=None):
    """Yield all nonnegative integer tables with the given margins, row by row."""
    m, n = len(r), len(c)
    zero = _as_mask(zero, m, n)
    even = _as_mask(even, m, n)

    def row_fills(total, caps, z, e):
        out = [0] * n

        def go(j, rem):
            if j == n:
                if rem == 0:
                    yield tuple(out)
                return
            if z[j]:
                out[j] = 0
                yield from go(j + 1, rem)
                return
            step = 2 if e[j] else 1
            for v in range(0, min(rem, caps[j]) + 1, step):
                out[j] = v
                yield from go(j + 1, rem - v)
            out[j] = 0

        yield from go(0, total)

    def rows(i, cres):
        if i == m:
            if all(x == 0 for x in cres):
                yield ()
            return
        for fill in row_fills(r[i], cres, zero[i], even[i]):
            rest_c = tuple(x - y for x, y in zip(cres, fill))
            for rest in rows(i + 1, rest_c):
                yield (fill,) + rest

    yield from rows(0, tuple(c))


def count_integer(r, c, zero=None, even=None):
    return sum(1 for _ in iter_integer_tables(r, c, zero, even))


def iter_binary_tables(r, c, zero=None):
    """Yield all 0/1 tables with the given margins, choosing row supports."""
    m, n = len(r), len(c)
    zero = _as_mask(zero, m, n)

    def rows(i, cres):
        if i == m:
            if all(x == 0 for x in cres):
                yield ()
            return
        allowed = [j for j in range(n) if not zero[i][j] and cres[j] > 0]
        if r[i] > len(allowed):
            return
        for sup in itertools.combinations(allowed, r[i]):
            sup = set(sup)
            row = tuple(1 if j in sup else 0 for j in range(n))
            rest_c = tuple(x - row[j] for j, x in enumerate(cres))
            for rest in rows(i + 1, rest_c):
                yield (row,) + rest

    yield from rows(0, tuple(c))


def count_binary(r, c, zero=None):
    return sum(1 for _ in iter_binary_tables(r, c, zero))


def count_latin(n):
    """Latin square count by a row-by-row DP over per-column symbol masks."""
    states = {(0,) * n: 1}
    for _ in range(n):
        nxt = {}
        for colmask, ways in states.items():
            for perm in itertools.permutations(range(n)):
                if any((colmask[j] >> perm[j]) & 1 for j in range(n)):
                    continue
                key = tuple(colmask[j] | (1 << perm[j]) for j in range(n))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(states.values())


def iter_partitions(n, distinct=False):
    """Yield partitions of n as descending tuples."""

    def rec(rem, top):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, top), 0, -1):
            for rest in rec(rem - first, first - 1 if distinct else first):
                yield (first,) + rest

    yield from rec(n, n)


def partition_counts_dp(n):
    """p(0..n) by adding one part size at a time (coin-change DP), O(n^2)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


def distinct_partition_counts_dp(n):
    """Distinct-part counts of 0..n by the 0/1 subset-sum DP, O(n^2)."""
    q = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(n, part - 1, -1):
            q[s] += q[s - part]
    return q


def poisson_binomial_convolve(ps, k):
    """P(sum of Bernoulli(ps) = k) by direct sequential convolution."""
    probs = np.zeros(len(ps) + 1)
    probs[0] = 1.0
    for i, p in enumerate(ps):
        probs[1 : i + 2] = probs[1 : i + 2] * (1.0 - p) + probs[: i + 1] * p
        probs[0] *= 1.0 - p
    return float(probs[k])


def mass_at(masses, k):
    """P(k) from a mass vector indexed from 0; zero outside it."""
    return float(masses[k]) if 0 <= k < len(masses) else 0.0


def nb_pmf(m, q, k):
    """Negative binomial mass from the closed form, for cross-checks."""
    if m == 0:
        return 1.0 if k == 0 else 0.0
    return comb(m + k - 1, k) * (1.0 - q) ** m * q**k


def conditioned_cell_masses_loop(even_cell, q, rest_even, rest_plain, c_res):
    """`conditioned_cell_pmf` masses as the package first computed them: one
    Python multiply per x, then one vector divide.  Unlike the oracles above
    it reuses the package's own base and column laws, because it pins the
    float arithmetic of the vectorised product, not the model; the laws
    themselves are checked against closed forms in test_pmf."""
    from bittables.errors import ConditioningError
    from bittables.pmf import _even_cell_base, geometric_dist, mixed_column_sum_pmf

    if c_res < 0:
        raise ConditioningError(f"column residual {c_res} is negative")
    base = _even_cell_base(q, c_res) if even_cell else geometric_dist(q, c_res)
    rest = mixed_column_sum_pmf(q, rest_even, rest_plain, c_res)
    total = mixed_column_sum_pmf(
        q, rest_even + (1 if even_cell else 0), rest_plain + (0 if even_cell else 1), c_res
    )
    denom = mass_at(total, c_res)
    if denom <= 0.0:
        raise ConditioningError(f"column sum {c_res} unreachable")
    masses = np.array([mass_at(base, x) * mass_at(rest, c_res - x) for x in range(c_res + 1)])
    return masses / denom


def conditioned_cell_marginal(cell_class, q, rest_even, rest_plain, c_res, x):
    """Single point of `conditioned_cell_pmf`; cell_class is 'even' or 'plain'."""
    from bittables.pmf import conditioned_cell_pmf

    if cell_class not in ("even", "plain"):
        raise ValueError(f"unknown cell class {cell_class!r}")
    if x < 0 or x > c_res:
        return 0.0
    return mass_at(conditioned_cell_pmf(cell_class == "even", q, rest_even, rest_plain, c_res), x)


def colmasks_loop(mask, m, n):
    """Per-column row bitmasks of a boolean (m, n) mask, one cell at a time:
    the reference for `counting._colmasks`."""
    if mask is None:
        return (0,) * n
    a = np.asarray(mask, dtype=bool)
    out = []
    for j in range(n):
        bits = 0
        for i in range(m):
            if a[i, j]:
                bits |= 1 << i
        out.append(bits)
    return tuple(out)


def negative_binomial_dist_loop(m, q, cap):
    """`negative_binomial_dist` as the package first computed it: the forward
    recurrence written one numpy element at a time.  It pins the float
    arithmetic of the list-built version; the law itself is checked against
    `nb_pmf`."""
    if m == 0 or q == 0.0:
        return np.array([1.0])
    masses = np.empty(cap + 1)
    masses[0] = (1.0 - q) ** m
    for k in range(cap):
        masses[k + 1] = masses[k] * q * (m + k) / (k + 1)
    return masses


def approx_bit_weight_conditioned(i, j, k, t, q):
    """The integer `approx` line weight as the package first computed it.

    The column factor is the law of column j's open cells at its residual,
    the scored cell even, and the row factor convolves every open cell of
    row i, the scored one included, each conditioned on its own column sum.
    Its column law cancels against the column factor in exact arithmetic;
    this version keeps both, to check the cancelled form against.  `t` is
    a `MaskedTable` scanned in column-major order up to (i, j), with
    residuals in units of the level bit; `q` holds the column parameters.
    """
    from bisect import bisect_left

    from bittables.errors import ConditioningError
    from bittables.pmf import conditioned_cell_pmf, mixed_column_sum_pmf

    r_i = t.r_res[i] - k
    c_j = t.c_res[j] - k
    if r_i < 0 or c_j < 0:
        return 0.0
    col_open = t.open_c
    above = bisect_left(t.open_in_col(j), i)
    n_even = above + (not t.closed[i][j])
    col_law = mixed_column_sum_pmf(q[j], n_even, col_open[j] - n_even, c_j)
    col_factor = mass_at(col_law, c_j)
    if col_factor <= 0.0:
        return 0.0
    conv = None
    for l in t.open_in_row(i):
        c_l = t.c_res[l]
        if l < j:
            cell_even, rest_even = True, col_open[l] - 1
        elif l == j:
            cell_even, rest_even, c_l = True, above, c_j
        else:
            cell_even, rest_even = False, 0
        try:
            cell = conditioned_cell_pmf(cell_even, q[l], rest_even, col_open[l] - 1 - rest_even, c_l)
        except ConditioningError:
            return 0.0
        conv = cell if conv is None else np.convolve(conv, cell)[: r_i + 1]
    if conv is None:
        return col_factor if r_i == 0 else 0.0
    return col_factor * mass_at(conv, r_i)
