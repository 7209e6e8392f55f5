"""Discrete probability mass computations used by the table samplers.

Everything here works with plain floats and small numpy arrays.  Distributions
with unbounded support (geometric, negative binomial, and sums built from
them) are materialised as truncated mass vectors; the `truncated` flag on
`DiscretePMF` records whether tail mass was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError

__all__ = [
    "DiscretePMF",
    "ColumnParamScheme",
    "geometric_pmf",
    "geometric_dist",
    "negative_binomial_dist",
    "poisson_binomial_pmf",
    "poisson_binomial_point",
    "mixed_column_sum_pmf",
    "conditioned_cell_pmf",
    "convolve_truncated",
    "column_parameters",
]

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscretePMF:
    """Mass vector for a distribution on a contiguous integer range.

    `masses[i]` is the probability of `offset + i`.  When `truncated` is set
    the vector is a prefix of an infinite-support law and the masses sum to
    less than one.
    """

    offset: int
    masses: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)

    def prob(self, k: int) -> float:
        i = k - self.offset
        if i < 0 or i >= len(self.masses):
            return 0.0
        return float(self.masses[i])

    @property
    def support_max(self) -> int:
        return self.offset + len(self.masses) - 1

    def total(self) -> float:
        return float(self.masses.sum())

    def validate(self) -> None:
        """Check mass-vector invariants, raising ValueError on violation."""
        if self.masses.ndim != 1:
            raise ValueError("masses must be one-dimensional")
        if len(self.masses) and (self.masses.min() < -_MASS_TOL or self.masses.max() > 1 + _MASS_TOL):
            raise ValueError("masses outside [0, 1]")
        s = self.total()
        if s > 1 + _MASS_TOL:
            raise ValueError(f"mass sum {s} exceeds 1")
        if not self.truncated and abs(s - 1.0) > _MASS_TOL:
            raise ValueError(f"complete pmf must sum to 1, got {s}")

    @staticmethod
    def point_mass(k: int) -> "DiscretePMF":
        return DiscretePMF(offset=k, masses=np.array([1.0]))


@dataclass(frozen=True)
class ColumnParamScheme:
    """Per-column geometric parameters q[j] for one integer table level.

    h[j] counts the closed cells of column j used when the parameters were
    derived.

    `column_factors` and `cell_laws` memoise the integer line laws under
    these parameters (see `integer_sampler.approx_bit_weight`).  A sampler
    builds one scheme per bit level, so the memo lives exactly one level;
    its keys are bounded by the distinct parameters, the open cells per
    column and the residuals, and it needs no size limit.
    """

    h: np.ndarray
    q: np.ndarray
    column_factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    cell_laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def geometric_pmf(q: float, k: int) -> float:
    """P(G = k) = (1-q) * q**k for a geometric variable on {0, 1, 2, ...}."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"geometric parameter must lie in (0, 1), got {q}")
    if k < 0:
        raise ValueError(f"geometric support is nonnegative, got k={k}")
    return (1.0 - q) * q**k


def geometric_dist(q: float, cap: int) -> DiscretePMF:
    """Geometric(q) masses on {0..cap}; q = 0 degenerates to a point mass at 0."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if q == 0.0:
        return DiscretePMF.point_mass(0)
    if not (0.0 < q < 1.0):
        raise ValueError(f"parameter must lie in [0, 1), got {q}")
    ks = np.arange(cap + 1)
    return DiscretePMF(offset=0, masses=(1.0 - q) * q**ks, truncated=True)


def negative_binomial_dist(m: int, q: float, cap: int) -> DiscretePMF:
    """Sum of m geometric(q) variables, truncated to {0..cap}."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0 or q == 0.0:
        return DiscretePMF.point_mass(0)
    if not (0.0 < q < 1.0):
        raise ValueError(f"parameter must lie in [0, 1), got {q}")
    # stable forward recurrence: f(0) = (1-q)^m, f(k+1) = f(k) * q * (m+k)/(k+1)
    masses = np.empty(cap + 1)
    masses[0] = (1.0 - q) ** m
    for k in range(cap):
        masses[k + 1] = masses[k] * q * (m + k) / (k + 1)
    return DiscretePMF(offset=0, masses=masses, truncated=True)


_ROOT_CACHE: dict[int, np.ndarray] = {}


def _unit_roots(count: int) -> np.ndarray:
    roots = _ROOT_CACHE.get(count)
    if roots is None:
        roots = np.exp(2j * np.pi * np.arange(count) / count)
        _ROOT_CACHE[count] = roots
    return roots


def poisson_binomial_point(ps: np.ndarray, k: int) -> float:
    """P(sum of independent Bernoulli(ps) = k), no argument validation.

    Evaluated through the characteristic function on the (N+1)-th roots of
    unity, taking the real part at the end.
    """
    n = len(ps)
    if n == 0:
        return 1.0 if k == 0 else 0.0
    roots = _unit_roots(n + 1)
    # E[C^(l S)] = prod_j (1 + (C^l - 1) p_j) for each root C^l
    prods = np.prod(1.0 + np.outer(roots - 1.0, ps), axis=1)
    val = np.real(np.sum(np.exp(-2j * np.pi * np.arange(n + 1) * k / (n + 1)) * prods)) / (n + 1)
    return float(min(max(val, 0.0), 1.0))


def poisson_binomial_pmf(p, k: int, js=None) -> float:
    """P(sum over j in js of Bernoulli(p[j]) = k) via the roots-of-unity inversion.

    `js` selects a subset of indices of `p`; by default all of `p` is used.
    An empty selection yields the indicator of k = 0.
    """
    ps = np.asarray(p, dtype=float)
    if js is not None:
        ps = ps[np.asarray(js, dtype=int)]
    if np.any(ps < 0.0) or np.any(ps > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    if k < 0 or k > len(ps):
        raise ValueError(f"k={k} outside support 0..{len(ps)}")
    return poisson_binomial_point(ps, k)


def _stretch_even(pmf: DiscretePMF, cap: int) -> DiscretePMF:
    """Reindex a pmf on {0..M} to live on even values {0, 2, ..} up to cap."""
    out = np.zeros(cap + 1)
    top = min(pmf.support_max, cap // 2)
    out[0 : 2 * top + 1 : 2] = pmf.masses[: top + 1]
    dropped = pmf.truncated or pmf.support_max > cap // 2
    return DiscretePMF(offset=0, masses=out, truncated=dropped)


def mixed_column_sum_pmf(q: float, n_even: int, n_plain: int, cap: int) -> DiscretePMF:
    """Law of a column-remainder sum, truncated to {0..cap}.

    The sum has `n_even` cells whose remaining value is twice a
    geometric(q**2) variable (their low bit is already decided) plus
    `n_plain` untouched geometric(q) cells.  Both counts zero gives a point
    mass at 0.
    """
    if n_even < 0 or n_plain < 0:
        raise ValueError("cell counts must be nonnegative")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    even_part = _stretch_even(negative_binomial_dist(n_even, q * q, cap // 2), cap)
    plain_part = negative_binomial_dist(n_plain, q, cap)
    return convolve_truncated(even_part, plain_part, cap)


def convolve_truncated(a: DiscretePMF, b: DiscretePMF, cap: int) -> DiscretePMF:
    """PMF of the independent sum of `a` and `b`, masses above cap dropped."""
    offset = a.offset + b.offset
    if offset > cap:
        return DiscretePMF(offset=offset, masses=np.zeros(0), truncated=True)
    conv = np.convolve(a.masses, b.masses)
    keep = cap - offset + 1
    dropped = len(conv) > keep
    return DiscretePMF(
        offset=offset,
        masses=conv[:keep],
        truncated=a.truncated or b.truncated or dropped,
    )


def _window(pmf: DiscretePMF, cap: int) -> np.ndarray:
    """Masses of `pmf` at 0..cap, zero outside its support (`prob` as a vector)."""
    out = np.zeros(cap + 1)
    lo, hi = max(pmf.offset, 0), min(pmf.support_max, cap)
    if lo <= hi:
        out[lo : hi + 1] = pmf.masses[lo - pmf.offset : hi - pmf.offset + 1]
    return out


def _even_cell_base(q: float, cap: int) -> DiscretePMF:
    """Law of twice a geometric(q**2) variable, truncated to {0..cap}."""
    return _stretch_even(negative_binomial_dist(1, q * q, cap // 2), cap)


def conditioned_cell_pmf(
    even_cell: bool, q: float, rest_even: int, rest_plain: int, c_res: int
) -> DiscretePMF:
    """Law of one column cell conditioned on its column summing to c_res.

    The cell is geometric(q) (plain) or twice-geometric(q**2) (even class);
    the rest of the column contributes `rest_even` even-class and
    `rest_plain` plain cells.  Raises ConditioningError when the column sum
    c_res has probability zero under the joint model.
    """
    if c_res < 0:
        raise ConditioningError(f"column residual {c_res} is negative")
    base = _even_cell_base(q, c_res) if even_cell else geometric_dist(q, c_res)
    rest = mixed_column_sum_pmf(q, rest_even, rest_plain, c_res)
    total = mixed_column_sum_pmf(
        q, rest_even + (1 if even_cell else 0), rest_plain + (0 if even_cell else 1), c_res
    )
    denom = total.prob(c_res)
    if denom <= 0.0:
        raise ConditioningError(
            f"column sum {c_res} unreachable for q={q}, "
            f"{rest_even + even_cell} even / {rest_plain + (not even_cell)} plain cells"
        )
    # the same multiply per x, then the same divide, as a loop over x would do
    masses = _window(base, c_res) * _window(rest, c_res)[::-1]
    return DiscretePMF(offset=0, masses=masses / denom, truncated=False)


def column_parameters(c, h, m: int) -> ColumnParamScheme:
    """Derive per-column geometric parameters from column sums and closed-cell counts.

    q[j] = c[j] / (m - h[j] + c[j]), which makes the open-cell geometric
    column sum have expectation c[j].  Columns with c[j] = 0 get the
    degenerate parameter 0.
    """
    c = np.asarray(c, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    if c.shape != h.shape:
        raise ValueError("c and h must have matching shapes")
    if np.any(c < 0) or np.any(h < 0) or np.any(h > m):
        raise ValueError("column sums and closed counts must lie in range")
    open_cells = m - h
    if np.any((c > 0) & (open_cells <= 0)):
        raise ValueError("positive column sum with no open cells")
    q = np.zeros(len(c))
    pos = c > 0
    q[pos] = c[pos] / (open_cells[pos] + c[pos])
    return ColumnParamScheme(h=h, q=q)
