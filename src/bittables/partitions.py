"""Exactly uniform integer partition samplers via bit-level self-similarity.

A tilted measure puts independent geometric (or Bernoulli, for distinct
parts) multiplicities on part sizes; conditioned on total n it is uniform.
The low bits of the multiplicities are sampled directly, a soft-rejection
step corrects the law of the remaining even half, and the half recurses as a
fresh instance of the same problem, so no conditional distribution ever
needs to be computed explicitly.

The soft-rejection step weighs residuals by exact counts p(m) (or q(m) for
distinct parts).  These are kept in one table per kind for the whole
process, extended in place to the largest prefix requested; a draw of size n
reads only the entries up to n // 2.  q is derived from p by Euler's
identity, so both tables cost O(m^1.5) big-integer additions to build.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DeadStateError

__all__ = [
    "Partition",
    "partition_counts",
    "distinct_partition_counts",
    "enumerate_partitions",
    "sample_partition",
    "sample_distinct_partition",
]


@dataclass(frozen=True)
class Partition:
    """A partition of n as (part, multiplicity) pairs with parts ascending."""

    n: int
    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(p), int(k)) for p, k in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        last = 0
        total = 0
        for p, k in pairs:
            if p <= last or k <= 0:
                raise ValueError(f"malformed pairs {pairs}")
            last = p
            total += p * k
        if total != self.n:
            raise ValueError(f"pairs sum to {total}, expected {self.n}")

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        counts: dict = {}
        for p in parts:
            counts[int(p)] = counts.get(int(p), 0) + 1
        return cls(n=sum(int(p) for p in parts), pairs=tuple(sorted(counts.items())))

    def parts(self) -> list:
        """Expanded part list, largest first."""
        out = []
        for p, k in reversed(self.pairs):
            out.extend([p] * k)
        return out

    def is_distinct(self) -> bool:
        return all(k == 1 for _, k in self.pairs)


def _pentagonal_terms(limit, scale):
    """(scale * g, (-1)**k) for the generalized pentagonal numbers
    g = k(3k-1)/2, k = 1, -1, 2, -2, ..., in ascending order, until the
    offset passes `limit`."""
    terms = []
    k = 1
    while scale * k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 else 1
        terms.append((scale * k * (3 * k - 1) // 2, sign))
        terms.append((scale * k * (3 * k + 1) // 2, sign))
        k += 1
    return terms


def _signed_sum(p, m, terms):
    """Sum of sign * p[m - offset] over the terms with offset <= m."""
    total = 0
    for offset, sign in terms:
        if offset > m:
            break
        if sign > 0:
            total += p[m - offset]
        else:
            total -= p[m - offset]
    return total


def _extend_partition_counts(p, m):
    """Append p(len(p)..m) by Euler's pentagonal number recurrence."""
    terms = _pentagonal_terms(m, 1)
    for j in range(len(p), m + 1):
        p.append(-_signed_sum(p, j, terms))


def _extend_distinct_counts(q, m):
    """Append q(len(q)..m) by q(j) = sum over k in Z of (-1)**k p(j - k(3k-1)),
    which is prod(1 + x**i) = prod(1 - x**(2i)) / prod(1 - x**i)."""
    p = _ALL.prefix(m)
    terms = _pentagonal_terms(m, 2)
    for j in range(len(q), m + 1):
        q.append(p[j] + _signed_sum(p, j, terms))


class _CountTable:
    """Exact counts c(0..m) of one kind, kept for the whole process.

    The table is extended in place when a longer prefix is asked for, so it
    always holds the largest m requested so far.  `logs` holds math.log of
    every entry, all of them at least 1, for the samplers' acceptance step.
    """

    def __init__(self, extend):
        self._extend = extend
        self._values = [1]
        self.logs = np.zeros(1)
        self._lock = threading.Lock()

    def grow(self, m) -> None:
        """Extend the table to c(0..m) if it is shorter."""
        with self._lock:
            old = len(self._values)
            if m >= old:
                self._extend(self._values, m)
                new = [math.log(v) for v in self._values[old:]]
                self.logs = np.concatenate([self.logs, new])

    def prefix(self, m) -> list:
        """A copy of c(0..m), growing the table first if it is shorter."""
        self.grow(m)
        return self._values[: m + 1]


_ALL = _CountTable(_extend_partition_counts)
_DISTINCT = _CountTable(_extend_distinct_counts)


def partition_counts(n: int) -> list:
    """p(0..n) by the pentagonal number recurrence, as exact integers.

    Served from a table cached for the process; the list returned is a copy.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _ALL.prefix(n)


def distinct_partition_counts(n: int) -> list:
    """Counts of partitions of 0..n into distinct parts, as exact integers.

    Computed from p by Euler's identity and served from a table cached for
    the process; the list returned is a copy.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _DISTINCT.prefix(n)


def _partitions_rec(n, top, distinct):
    if n == 0:
        yield ()
        return
    for k in range(min(n, top), 0, -1):
        for rest in _partitions_rec(n - k, k - 1 if distinct else k, distinct):
            yield (k,) + rest


def enumerate_partitions(n: int, distinct: bool = False):
    """Yield every partition of n as a descending tuple of parts."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _partitions_rec(n, n, distinct)


# Proposals one level may reject before giving up.  Default-tilt levels
# took at most 64 proposals over ~16k levels of draws with n <= 9000; only a
# pinned tilt far from the residual target (tilt=1e-9 with n=3 proposes
# nothing but zeros) runs into it.
_STAGE_BUDGET = 20_000


def _stage(target, idx, probs, lognum, logmax, rng):
    """Sample one level's bits, soft-rejecting until the even residual is
    consistent; returns (bit flags, residual half-target)."""
    for _ in range(_STAGE_BUDGET):
        bits = rng.random(idx.size) < probs
        a = int(idx[bits].sum())
        rem = target - a
        if rem < 0 or rem % 2:
            continue
        mp = rem // 2
        s = math.exp(lognum[mp] - logmax)
        if not 0.0 <= s <= 1.0 + 1e-12:
            raise ConditioningError(f"acceptance {s} out of range at target {target}")
        if rng.random() <= s:
            return bits, mp
    raise DeadStateError(
        f"partition level with target {target} rejected {_STAGE_BUDGET} proposals")


def _sample_core(n, rng, tilt, logtable, distinct) -> dict:
    """Shared level loop; `logtable` holds the logs of p (or of the
    distinct-part counts), all finite, up to at least n // 2.  Unrestricted
    levels double the multiplicity carried by each recorded bit;
    distinct-part levels double the part size instead."""
    parts: dict = {}
    target = n
    factor = 1
    scale = 12.0 if distinct else 6.0
    while target > 0:
        if target == 1:
            key = factor if distinct else 1
            parts[key] = parts.get(key, 0) + (1 if distinct else factor)
            break
        x = tilt if tilt is not None else math.exp(-math.pi / math.sqrt(scale * target))
        logx = math.log(x)
        # acceptance for residual l is proportional to c(l) * x**(2l),
        # the chance the untouched even halves absorb exactly 2l; the terms
        # are rounded as log(c(l)) + (2.0 * l) * logx, and the fixed-seed
        # draws in tests/data/partition_golden.json depend on that order
        half = target // 2 + 1
        lognum = logtable[:half] + 2.0 * np.arange(half) * logx
        logmax = lognum.max()
        idx = np.arange(1, target + 1, 2 if distinct else 1)
        xi = x**idx.astype(float)
        probs = xi / (1.0 + xi)
        bits, mp = _stage(target, idx, probs, lognum, logmax, rng)
        for i in idx[bits]:
            key = int(i) * factor if distinct else int(i)
            parts[key] = parts.get(key, 0) + (1 if distinct else factor)
        target = mp
        factor *= 2
    return parts


def _check_args(n, tilt):
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if tilt is not None and not (0.0 < tilt < 1.0):
        raise ValueError(f"tilt must lie in (0, 1), got {tilt}")


def sample_partition(n: int, seed=None, rng=None, tilt=None) -> Partition:
    """Draw a uniformly random partition of n.

    The default tilt exp(-pi / sqrt(6 t)) is rederived from the residual
    target t at every level; passing `tilt` pins that value everywhere.
    Any tilt in (0, 1) leaves the output exactly uniform.  Raises
    DeadStateError when a level rejects every proposal of its budget, which
    only a pinned tilt far from the target's scale causes.
    """
    _check_args(n, tilt)
    rng = rng if rng is not None else np.random.default_rng(seed)
    _ALL.grow(n // 2)
    counts = _sample_core(n, rng, tilt, _ALL.logs, distinct=False)
    return Partition(n=n, pairs=tuple(sorted(counts.items())))


def sample_distinct_partition(n: int, seed=None, rng=None, tilt=None) -> Partition:
    """Draw a uniformly random partition of n into distinct parts.

    Levels read the bits of odd part sizes and recurse on the doubled
    remainder, so parts retired at level d carry a factor 2**d; distinctness
    is automatic because every positive integer splits uniquely as
    odd * 2**d.  The default tilt is exp(-pi / sqrt(12 t)), the saddle
    point of the distinct-part generating function; `tilt` behaves as in
    `sample_partition`.
    """
    _check_args(n, tilt)
    rng = rng if rng is not None else np.random.default_rng(seed)
    _DISTINCT.grow(n // 2)
    counts = _sample_core(n, rng, tilt, _DISTINCT.logs, distinct=True)
    return Partition(n=n, pairs=tuple(sorted(counts.items())))
