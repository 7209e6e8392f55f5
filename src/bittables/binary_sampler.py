"""Entry-by-entry sampler for 0/1 tables with fixed margins.

Cells are decided in column-major order.  Each candidate bit is trial-filled
to propagate its forced consequences, then weighted either by exact
completion counts or by the product of its proposal probability and a
Poisson-binomial line weight; dead states restart the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import CountOracle, shared_oracle
from .diagnostics import SamplerDiagnostics, choose_bit, run_with_restarts
from .errors import ContradictionError, InfeasibleError
from .pmf import poisson_binomial_point
from .table import MaskedTable, binary_feasible, deterministic_fill

__all__ = [
    "BinaryStrategy",
    "full_line_weight",
    "sample_binary_table",
]


@dataclass
class BinaryStrategy:
    """Per-entry decision rule for binary tables.

    kind "exact" draws from completion counts and is uniform; "full-line"
    weighs candidates over all open cells of the entry's row and column and
    is biased.  `refresh` rederives the per-column Bernoulli parameters from
    the residual state at every decision; when off, they are derived once,
    by the same rule, from the initial instance.
    """

    kind: str = "full-line"
    oracle: CountOracle | None = None
    refresh: bool = True

    def __post_init__(self):
        if self.kind not in ("exact", "full-line"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")


def _refresh_params(t: MaskedTable) -> np.ndarray:
    """Per-column success probabilities p[j] = c_res[j] / open cells of column j.

    The one parameter rule: refreshed at every decision, or taken once from
    the initial instance when `BinaryStrategy.refresh` is off.
    """
    open_cols = t.m - np.count_nonzero(t.mask, axis=0)
    p = np.zeros(t.n)
    pos = open_cols > 0
    p[pos] = t.c_res[pos] / open_cols[pos]
    return np.clip(p, 0.0, 1.0)


def full_line_weight(i, j, k, t: MaskedTable, p) -> float:
    """Rejection weight for bit k at (i, j) over its full row and column.

    The weight is the probability that the open cells of row i and column j,
    the cell itself excluded, exactly absorb the residual margins net of k,
    each cell an independent Bernoulli with its column's parameter p[l].
    Unreachable residuals give 0.0.
    """
    r_i = int(t.r_res[i]) - k
    c_j = int(t.c_res[j]) - k
    if r_i < 0 or c_j < 0:
        return 0.0
    row = [l for l in t.open_cols_in_row(i) if l != j]
    col = [s for s in t.open_rows_in_col(j) if s != i]
    if r_i > len(row) or c_j > len(col):
        return 0.0
    row_factor = poisson_binomial_point(np.array([p[l] for l in row], dtype=float), r_i)
    col_factor = poisson_binomial_point(np.full(len(col), p[j], dtype=float), c_j)
    return float(row_factor * col_factor)


def _entry_decision(i, j, t, strategy, p_static, oracle, rng, diag):
    """Decide the bit at open cell (i, j); returns (bit, fill to commit).

    Exact: weights are completion counts.  Full-line: each candidate is
    trial-filled and weighted by the proposal probability of the cells it
    forces times its line weight; a candidate that contradicts weighs 0.
    """
    if strategy.kind == "exact":
        fz = t.mask.copy()
        fz[i, j] = True
        counts = []
        for k in (0, 1):
            rr = t.r_res.copy()
            cc = t.c_res.copy()
            rr[i] -= k
            cc[j] -= k
            counts.append(oracle.count_binary_tables(rr, cc, fz))
        bit = choose_bit(counts[0], counts[1], rng, diag, (i, j))
        return bit, deterministic_fill([(i, j, bit)], t, mode="binary", assume_fixed_point=True)
    p = _refresh_params(t) if strategy.refresh else p_static
    fills = [None, None]
    weights = [0.0, 0.0]
    for k in (0, 1):
        try:
            fr = deterministic_fill([(i, j, k)], t, mode="binary", assume_fixed_point=True)
        except ContradictionError:
            continue
        prod = 1.0
        for s, l, v in fr.forced:
            prod *= p[l] if v else (1.0 - p[l])
        fills[k] = fr
        weights[k] = prod * full_line_weight(i, j, 0, fr.table, p)
    bit = choose_bit(weights[0], weights[1], rng, diag, (i, j))
    return bit, fills[bit]


def sample_binary_table(
    r,
    c,
    forced_zero=None,
    strategy: BinaryStrategy | None = None,
    seed=None,
    rng=None,
    max_restarts: int = 1000,
):
    """Draw a 0/1 table with the given margins and forced zeros.

    The draw is uniform under the "exact" strategy only; "full-line" draws
    are biased (ROADMAP.md tabulates the measured bias).  Returns
    (entries, diagnostics).  Raises InfeasibleError when no binary
    table fits the instance at all, DeadStateError when the approximate
    weights exhaust `max_restarts` restarts, and ValueError when
    `max_restarts` is negative.
    """
    strategy = strategy if strategy is not None else BinaryStrategy()
    rng = rng if rng is not None else np.random.default_rng(seed)
    base = MaskedTable.from_margins(r, c, forced_zero)
    oracle = strategy.oracle if strategy.oracle is not None else shared_oracle()
    if strategy.kind == "exact":
        # The cached count doubles as the feasibility check; the max-flow
        # test would cost more per draw than the whole exact scan.
        oracle.check_binary_limits(base.r_res.tolist(), base.c_res.tolist())
        if oracle.count_binary_tables(base.r_res, base.c_res, base.mask) == 0:
            raise InfeasibleError("no binary table matches the margins and mask")
    elif not binary_feasible(base.r_res, base.c_res, base.mask):
        raise InfeasibleError("no binary table matches the margins and mask")
    p_static = None if strategy.refresh else _refresh_params(base)
    diag = SamplerDiagnostics()

    def attempt():
        t = deterministic_fill([], base, mode="binary").table
        for j in range(t.n):
            for i in range(t.m):
                if t.mask[i, j]:
                    continue
                _, fr = _entry_decision(i, j, t, strategy, p_static, oracle, rng, diag)
                t = fr.table
        if not t.is_complete() or t.r_res.any() or t.c_res.any():
            raise ContradictionError("scan ended with open cells or residual margins")
        return t.entries.copy()

    entries = run_with_restarts(attempt, max_restarts, diag, strategy.kind != "exact")
    return entries, diag
