"""Output checks and reference computations, written apart from bittables.

Nothing here imports the package: margins, Latin lines and partition sums
are recomputed from the returned objects, and reference counts come from a
row-by-row recursion, where the package counts column by column.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

SIGNIFICANCE = 0.01


def _mask(mask, m, n):
    if mask is None:
        return np.zeros((m, n), dtype=bool)
    return np.asarray(mask, dtype=bool)


def table_ok(entries, r, c, zero=None, binary=False) -> bool:
    """Margins, forced zeros and value range of a drawn table."""
    a = np.asarray(entries)
    if a.shape != (len(r), len(c)) or not np.issubdtype(a.dtype, np.integer):
        return False
    if a.size and (a.min() < 0 or (binary and a.max() > 1)):
        return False
    if np.any(a[_mask(zero, len(r), len(c))] != 0):
        return False
    return a.sum(axis=1).tolist() == list(r) and a.sum(axis=0).tolist() == list(c)


def latin_ok(values, n: int) -> bool:
    """Every row and column is a permutation of 1..n."""
    a = np.asarray(values)
    if a.shape != (n, n):
        return False
    want = list(range(1, n + 1))
    return all(sorted(a[i].tolist()) == want and sorted(a[:, i].tolist()) == want
               for i in range(n))


def partition_ok(parts, n: int, distinct: bool) -> bool:
    """Positive parts summing to n, pairwise distinct when asked."""
    parts = [int(p) for p in parts]
    if any(p <= 0 for p in parts) or sum(parts) != n:
        return False
    return not distinct or len(set(parts)) == len(parts)


def _row_fills(total, caps, zero_row, even_row, binary):
    """All rows summing to `total` under per-column caps."""
    n = len(caps)
    out = [0] * n

    def go(j, rem):
        if j == n:
            if rem == 0:
                yield tuple(out)
            return
        if zero_row[j]:
            out[j] = 0
            yield from go(j + 1, rem)
            return
        top = min(rem, caps[j], 1 if binary else rem)
        for v in range(0, top + 1, 2 if even_row[j] else 1):
            out[j] = v
            yield from go(j + 1, rem - v)
        out[j] = 0

    yield from go(0, total)


def count_tables(r, c, zero=None, even=None, binary=False) -> int:
    """Number of tables with margins r, c, by rows with memo on column residuals.

    Without masks the columns are exchangeable, so residuals are sorted
    into the memo key.
    """
    m, n = len(r), len(c)
    if min(list(r) + list(c), default=0) < 0 or sum(r) != sum(c):
        return 0
    zero = _mask(zero, m, n)
    even = _mask(even, m, n)
    symmetric = not zero.any() and not even.any()
    memo: dict = {}

    def rows(i, cres):
        if i == m:
            return int(not any(cres))
        key = (i, cres)
        if key in memo:
            return memo[key]
        total = 0
        for fill in _row_fills(r[i], cres, zero[i], even[i], binary):
            rest = tuple(x - y for x, y in zip(cres, fill))
            total += rows(i + 1, tuple(sorted(rest)) if symmetric else rest)
        memo[key] = total
        return total

    start = tuple(int(x) for x in c)
    return rows(0, tuple(sorted(start)) if symmetric else start)


def enumerate_tables(r, c, zero=None, binary=False) -> list:
    """Every table of a small instance, as tuples of row tuples."""
    m, n = len(r), len(c)
    zero = _mask(zero, m, n)
    no_even = np.zeros(n, dtype=bool)
    found = []

    def rows(i, cres, acc):
        if i == m:
            if not any(cres):
                found.append(tuple(acc))
            return
        for fill in _row_fills(r[i], cres, zero[i], no_even, binary):
            rows(i + 1, tuple(x - y for x, y in zip(cres, fill)), acc + [fill])

    rows(0, tuple(int(x) for x in c), [])
    return found


def enumerate_partitions(n: int, distinct: bool) -> list:
    """Every partition of n as a descending tuple of parts."""
    found = []

    def rec(rem, top, acc):
        if rem == 0:
            found.append(tuple(acc))
            return
        for p in range(min(rem, top), 0, -1):
            rec(rem - p, p - 1 if distinct else p, acc + [p])

    rec(n, n, [])
    return found


def chi_square_uniform(draws, keys) -> bool:
    """Chi-square test of `draws` against uniform on `keys` at SIGNIFICANCE.

    A draw outside `keys` fails outright.
    """
    from scipy.stats import chi2

    counts = Counter(draws)
    if set(counts) - set(keys):
        return False
    expected = len(draws) / len(keys)
    stat = sum((counts[k] - expected) ** 2 for k in keys) / expected
    return bool(stat <= chi2.ppf(1.0 - SIGNIFICANCE, len(keys) - 1))
