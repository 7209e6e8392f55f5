"""Exact counts and exhaustive enumeration for small table instances.

The counting recursions run column by column over residual row sums with
memoisation, entirely in Python integers.  They power the exact-count
sampling strategies and the uniformity tests, so everything here is exact;
size limits keep runtimes bounded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import OracleLimitError

__all__ = [
    "CountQuery",
    "CountOracle",
    "count_integer_tables",
    "count_binary_tables",
    "enumerate_integer_tables",
    "enumerate_binary_tables",
    "iter_latin_squares",
]

DEFAULT_MAX_INTEGER_DIM = 6
DEFAULT_MAX_INTEGER_MARGIN = 12
DEFAULT_MAX_BINARY_DIM = 8
DEFAULT_MAX_LATIN_ORDER = 5


def _colmasks(mask, m: int, n: int) -> tuple[int, ...]:
    """Encode a boolean (m, n) mask as one row-bitmask int per column."""
    if mask is None:
        return (0,) * n
    a = np.asarray(mask, dtype=bool)
    if a.shape != (m, n):
        raise ValueError(f"mask shape {a.shape} does not match ({m}, {n})")
    # row i of column j becomes bit i, exact for any m: rows pack little-endian
    # into bytes, and a column's bytes join little-endian.  Up to 8 rows a
    # column is one byte, read off directly, so small masks stay cheap.
    packed = np.packbits(a, axis=0, bitorder="little")
    if len(packed) == 1:
        return tuple(packed[0].tolist())
    return tuple(int.from_bytes(col.tobytes(), "little") for col in packed.T)


@dataclass(frozen=True)
class CountQuery:
    """Normalized arguments for one exact count; usable as a cache key.

    `w` forces cells to zero, `o` forces even values; a cell in both is
    simply zero (zero is even), so `w` dominates.
    """

    kind: str  # "integer" or "binary"
    r: tuple
    c: tuple
    w: tuple  # per-column row bitmasks
    o: tuple

    @classmethod
    def build(cls, kind, r, c, forced_zero=None, forced_even=None) -> "CountQuery":
        r = tuple(map(operator.index, r))
        c = tuple(map(operator.index, c))
        m, n = len(r), len(c)
        return cls(kind, r, c, _colmasks(forced_zero, m, n), _colmasks(forced_even, m, n))


class CountOracle:
    """Exact table counts with per-query caching and configurable size limits."""

    def __init__(
        self,
        max_integer_dim: int = DEFAULT_MAX_INTEGER_DIM,
        max_integer_margin: int = DEFAULT_MAX_INTEGER_MARGIN,
        max_binary_dim: int = DEFAULT_MAX_BINARY_DIM,
        max_latin_order: int = DEFAULT_MAX_LATIN_ORDER,
    ):
        self.max_integer_dim = max_integer_dim
        self.max_integer_margin = max_integer_margin
        self.max_binary_dim = max_binary_dim
        self.max_latin_order = max_latin_order
        self._cache: dict = {}

    def _query(self, kind, r, c, forced_zero=None, forced_even=None) -> CountQuery:
        """Build the query and check it against this oracle's limits; a
        negative residual counts zero tables and never trips the margin limit."""
        q = CountQuery.build(kind, r, c, forced_zero, forced_even)
        dim = self.max_integer_dim if kind == "integer" else self.max_binary_dim
        if len(q.r) > dim or len(q.c) > dim:
            raise OracleLimitError(f"{kind} instance {len(q.r)}x{len(q.c)} exceeds limit {dim}")
        top = max(q.r + q.c, default=0)
        if kind == "integer" and top > self.max_integer_margin:
            raise OracleLimitError(
                f"margin {top} exceeds integer counting limit {self.max_integer_margin}"
            )
        return q

    # -- counting ----------------------------------------------------------

    def count_integer_tables(self, r, c, forced_zero=None, forced_even=None) -> int:
        """Number of nonnegative integer tables with the given margins.

        Cells under `forced_zero` must be 0 and cells under `forced_even`
        must be even.  Unbalanced or negative margins count zero tables.
        """
        return self._count(self._query("integer", r, c, forced_zero, forced_even))

    def count_binary_tables(self, r, c, forced_zero=None) -> int:
        """Number of 0/1 tables with the given margins and forced zeros."""
        return self._count(self._query("binary", r, c, forced_zero))

    def _count(self, q: CountQuery) -> int:
        cached = self._cache.get(q)
        if cached is not None:
            return cached
        if min(q.r, default=0) < 0 or min(q.c, default=0) < 0 or sum(q.r) != sum(q.c):
            result = 0
        else:
            result = _count_rec(q)
        self._cache[q] = result
        return result

    # -- enumeration -------------------------------------------------------

    def enumerate_integer_tables(self, r, c, forced_zero=None, forced_even=None):
        """Iterator over the tables `count_integer_tables` counts, as row tuples."""
        return _enumerate_rec(self._query("integer", r, c, forced_zero, forced_even))

    def enumerate_binary_tables(self, r, c, forced_zero=None):
        """Iterator over the tables `count_binary_tables` counts, as row tuples."""
        return _enumerate_rec(self._query("binary", r, c, forced_zero))

    # -- Latin squares -----------------------------------------------------

    def iter_latin_squares(self, n: int):
        if n > self.max_latin_order:
            raise OracleLimitError(f"order {n} exceeds Latin enumeration limit {self.max_latin_order}")
        return _iter_latin(n)


def _suffix_symmetric(q: CountQuery) -> list:
    """suffix_symmetric[j]: no mask column at or after j distinguishes live rows.

    Only then may residual row sums be sorted into a canonical memo key.  A
    row whose query residual is 0 takes 0 in every column whatever its mask,
    so only the live rows, those with residual left, need to agree.
    """
    n = len(q.c)
    live = sum(1 << i for i, x in enumerate(q.r) if x > 0)
    out = [False] * (n + 1)
    out[n] = True
    for j in range(n - 1, -1, -1):
        uniform = (q.w[j] & live) in (0, live) and (q.o[j] & live) in (0, live)
        out[j] = out[j + 1] and uniform
    return out


def _columns(q: CountQuery, j: int, rho: tuple) -> list:
    """Residual row sums left by every feasible column j under residuals `rho`.

    Column j places q.c[j] in all: nothing under w, even values under o, at
    most 1 per binary cell.  A branch stops as soon as the rows below it
    cannot take what the column still needs.
    """
    m = len(rho)
    w, o = q.w[j], q.o[j]
    binary = q.kind == "binary"
    caps = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        avail = 0 if (w >> i) & 1 else (1 if binary else rho[i])
        caps[i] = caps[i + 1] + min(avail, rho[i])
    out = []
    nxt = list(rho)

    def go(i: int, remaining: int):
        if remaining > caps[i]:
            return
        if i == m:
            out.append(tuple(nxt))
            return
        if (w >> i) & 1:
            go(i + 1, remaining)
            return
        top = min(rho[i], remaining, 1 if binary else remaining)
        step = 2 if (o >> i) & 1 else 1
        for v in range(0, top + 1, step):
            nxt[i] = rho[i] - v
            go(i + 1, remaining - v)
        nxt[i] = rho[i]

    go(0, q.c[j])
    return out


def _count_rec(q: CountQuery) -> int:
    n = len(q.c)
    sym = _suffix_symmetric(q)
    memo: dict = {}

    def rec(j: int, rho: tuple) -> int:
        if j == n:
            return 1  # margins are balanced, so every residual is zero here
        key = (j, tuple(sorted(rho)) if sym[j] else rho)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = sum(rec(j + 1, nxt) for nxt in _columns(q, j, rho))
        return cached

    return rec(0, q.r)


def _enumerate_rec(q: CountQuery):
    """Yield every table satisfying the query, as tuples of row tuples."""
    m, n = len(q.r), len(q.c)
    if sum(q.r) != sum(q.c) or min(q.r, default=0) < 0 or min(q.c, default=0) < 0:
        return
    cols: list = [None] * n

    def walk(j: int, rho: tuple):
        if j == n:
            yield tuple(tuple(cols[t][i] for t in range(n)) for i in range(m))
            return
        for nxt in _columns(q, j, rho):
            cols[j] = tuple(a - b for a, b in zip(rho, nxt))
            yield from walk(j + 1, nxt)

    yield from walk(0, q.r)


def _iter_latin(n: int):
    """Iterative cell-by-cell backtracking; yields grids of values 1..n."""
    if n <= 0:
        raise ValueError("order must be positive")
    full = (1 << n) - 1
    nn = n * n
    grid = [0] * nn
    rowmask = [0] * n
    colmask = [0] * n
    avail = [0] * nn
    placed = [0] * nn
    avail[0] = full
    pos = 0
    while True:
        i, j = divmod(pos, n)
        b = placed[pos]
        if b:
            rowmask[i] &= ~b
            colmask[j] &= ~b
            placed[pos] = 0
        a = avail[pos]
        if a == 0:
            if pos == 0:
                return
            pos -= 1
            continue
        b = a & -a
        avail[pos] = a ^ b
        placed[pos] = b
        rowmask[i] |= b
        colmask[j] |= b
        grid[pos] = b.bit_length()
        if pos == nn - 1:
            yield tuple(tuple(grid[t * n : (t + 1) * n]) for t in range(n))
        else:
            pos += 1
            i2, j2 = divmod(pos, n)
            avail[pos] = full & ~(rowmask[i2] | colmask[j2])
            placed[pos] = 0


_default_oracle = CountOracle()


def shared_oracle() -> CountOracle:
    """Process-wide oracle the samplers fall back on; its cache pools queries."""
    return _default_oracle


def count_integer_tables(r, c, forced_zero=None, forced_even=None) -> int:
    return _default_oracle.count_integer_tables(r, c, forced_zero, forced_even)


def count_binary_tables(r, c, forced_zero=None) -> int:
    return _default_oracle.count_binary_tables(r, c, forced_zero)


def enumerate_integer_tables(r, c, forced_zero=None, forced_even=None):
    """Yield all integer tables for the instance (small sizes only)."""
    return _default_oracle.enumerate_integer_tables(r, c, forced_zero, forced_even)


def enumerate_binary_tables(r, c, forced_zero=None):
    return _default_oracle.enumerate_binary_tables(r, c, forced_zero)


def iter_latin_squares(n: int):
    return _default_oracle.iter_latin_squares(n)
