"""Discrete probability mass computations used by the table samplers.

Everything here works with plain floats and small numpy arrays.  A law on
{0, 1, ..} is a bare mass vector whose index k holds P(k); entries past its
end are zero.  Distributions with unbounded support (geometric, negative
binomial, and sums built from them) are cut at a cap and lose the mass
past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError

__all__ = [
    "ColumnParamScheme",
    "geometric_pmf",
    "geometric_dist",
    "negative_binomial_dist",
    "poisson_binomial_pmf",
    "poisson_binomial_point",
    "mixed_column_sum_pmf",
    "conditioned_cell_pmf",
    "column_parameters",
]


@dataclass(frozen=True)
class ColumnParamScheme:
    """Per-column geometric parameters q[j] for one integer table level.

    The integer `approx` sampler builds one scheme per bit level and keeps
    the line laws under these parameters on that level's own cache (see
    `integer_sampler.approx_bit_weight`), so a scheme holds q alone.
    """

    q: np.ndarray


def geometric_pmf(q: float, k: int) -> float:
    """P(G = k) = (1-q) * q**k for a geometric variable on {0, 1, 2, ...}."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"geometric parameter must lie in (0, 1), got {q}")
    if k < 0:
        raise ValueError(f"geometric support is nonnegative, got k={k}")
    return (1.0 - q) * q**k


def geometric_dist(q: float, cap: int) -> np.ndarray:
    """Geometric(q) masses on {0..cap}; q = 0 degenerates to a point mass at 0."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if q == 0.0:
        return np.array([1.0])
    if not (0.0 < q < 1.0):
        raise ValueError(f"parameter must lie in [0, 1), got {q}")
    ks = np.arange(cap + 1)
    return (1.0 - q) * q**ks


def negative_binomial_dist(m: int, q: float, cap: int) -> np.ndarray:
    """Sum of m geometric(q) variables, truncated to {0..cap}."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0 or q == 0.0:
        return np.array([1.0])
    if not (0.0 < q < 1.0):
        raise ValueError(f"parameter must lie in [0, 1), got {q}")
    # stable forward recurrence: f(0) = (1-q)^m, f(k+1) = f(k) * q * (m+k)/(k+1),
    # on Python floats, one array built at the end
    q = float(q)
    f = (1.0 - q) ** m
    masses = [f]
    for k in range(cap):
        f = f * q * (m + k) / (k + 1)
        masses.append(f)
    return np.array(masses)


def poisson_binomial_point(ps: np.ndarray, k: int) -> float:
    """P(sum of independent Bernoulli(ps) = k), no argument validation.

    Evaluated through the characteristic function on the (N+1)-th roots of
    unity, taking the real part at the end.
    """
    n = len(ps)
    if n == 0:
        return 1.0 if k == 0 else 0.0
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
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


def _stretch_even(masses: np.ndarray, cap: int) -> np.ndarray:
    """Reindex masses on {0..M} to live on even values {0, 2, ..} up to cap."""
    out = np.zeros(cap + 1)
    top = min(len(masses) - 1, cap // 2)
    out[0 : 2 * top + 1 : 2] = masses[: top + 1]
    return out


def mixed_column_sum_pmf(q: float, n_even: int, n_plain: int, cap: int) -> np.ndarray:
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
    return np.convolve(even_part, plain_part)[: cap + 1]


def _window(masses: np.ndarray, cap: int) -> np.ndarray:
    """`masses` at 0..cap, zero past its end."""
    out = np.zeros(cap + 1)
    top = min(len(masses), cap + 1)
    out[:top] = masses[:top]
    return out


def _even_cell_base(q: float, cap: int) -> np.ndarray:
    """Law of twice a geometric(q**2) variable, truncated to {0..cap}."""
    return _stretch_even(negative_binomial_dist(1, q * q, cap // 2), cap)


def conditioned_cell_pmf(
    even_cell: bool, q: float, rest_even: int, rest_plain: int, c_res: int
) -> np.ndarray:
    """Law of one column cell conditioned on its column summing to c_res.

    The cell is geometric(q) (plain) or twice-geometric(q**2) (even class);
    the rest of the column contributes `rest_even` even-class and
    `rest_plain` plain cells.  Returns the masses on {0..c_res}.  Raises
    ConditioningError when the column sum c_res has probability zero under
    the joint model.
    """
    if c_res < 0:
        raise ConditioningError(f"column residual {c_res} is negative")
    base = _even_cell_base(q, c_res) if even_cell else geometric_dist(q, c_res)
    rest = mixed_column_sum_pmf(q, rest_even, rest_plain, c_res)
    total = mixed_column_sum_pmf(
        q, rest_even + (1 if even_cell else 0), rest_plain + (0 if even_cell else 1), c_res
    )
    denom = total[c_res] if c_res < len(total) else 0.0
    if denom <= 0.0:
        raise ConditioningError(
            f"column sum {c_res} unreachable for q={q}, "
            f"{rest_even + even_cell} even / {rest_plain + (not even_cell)} plain cells"
        )
    # the same multiply per x, then the same divide, as a loop over x would do
    masses = _window(base, c_res) * _window(rest, c_res)[::-1]
    return masses / denom


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
    return ColumnParamScheme(q=q)
