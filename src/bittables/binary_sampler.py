"""Entry-by-entry sampler for 0/1 tables with fixed margins.

`sample_binary_table` checks the instance and runs `draw_binary_table`, the
scan the Latin cascade calls directly.  Cells are decided in column-major
order on one table per attempt; dead states restart it.  A candidate bit is
weighed by its completion count under "exact" and by its proposal
probability times a Poisson-binomial line weight under "full-line".  A
candidate is filled in place, weighed and retracted, and the chosen bit's
fill is kept.  The table is a fixed point of the binary fill before every
decision, so a *quiet* candidate, one that leaves its row and column
forcing nothing, fills just its own cell: under full-line it is weighed
with no trial fill.  Both candidates, quiet or filled, read their row point
off one shared convolution of the row whenever their fill forces no other
cell of it.  Line weights are a binomial for the column, whose cells share
one parameter, times a real sequential convolution for the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .counting import CountOracle, shared_oracle
from .diagnostics import SamplerDiagnostics, choose_bit, run_with_restarts
from .errors import ContradictionError, InfeasibleError
from .table import MaskedTable, binary_feasible, fill_in_place

__all__ = [
    "BinaryStrategy",
    "draw_binary_table",
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


def _param(c: int, o: int) -> float:
    """The one column parameter rule: c_res / open cells, in [0, 1]; 0.0 if either is 0."""
    return min(c / o, 1.0) if o > 0 and c > 0 else 0.0


def _refresh_params(t: MaskedTable) -> list:
    """`_param` of every column: kept current per decision, or frozen when `refresh` is off."""
    return [_param(c, o) for c, o in zip(t.c_res, t.open_c)]


def _row_law(ps, cap: int) -> list:
    """P(sum of independent Bernoulli(ps) = x) for x = 0..cap, by sequential
    real convolution; entry x does not depend on `cap` as long as x <= cap."""
    f = [1.0] + [0.0] * cap
    for seen, q in enumerate(ps):
        u = 1.0 - q
        for x in range(seen + 1 if seen < cap else cap, 0, -1):
            f[x] = f[x] * u + f[x - 1] * q
        f[0] *= u
    return f


def _row_point(ps, k: int) -> float:
    """P(sum of independent Bernoulli(ps) = k), the last entry of `_row_law`."""
    return _row_law(ps, k)[k]


def _binomial_point(n: int, q: float, k: int) -> float:
    """P(Binomial(n, q) = k) for 0 <= k <= n; past float range, by `_row_point`."""
    try:
        return comb(n, k) * q**k * (1.0 - q) ** (n - k)
    except OverflowError:
        return _row_point([q] * n, k)


def _row_params(i, j, t: MaskedTable, p) -> list:
    """The column parameters of row i's open cells, (i, j) excluded."""
    return [p[l] for l in t.open_in_row(i) if l != j]


def full_line_weight(i, j, k, t: MaskedTable, p, row_law=None) -> float:
    """Rejection weight for bit k at (i, j) over its full row and column.

    The weight is the probability that the open cells of row i and column j,
    the cell itself excluded, exactly absorb the residual margins net of k,
    each cell an independent Bernoulli with its column's parameter p[l]: a
    Poisson-binomial point for the row and a binomial one for the column.
    `row_law`, when given, is `_row_law` of `_row_params(i, j, t, p)` with a
    cap of at least r_res[i] - k, and the row point is read off it.
    Unreachable residuals give 0.0.
    """
    r_i = t.r_res[i] - k
    c_j = t.c_res[j] - k
    if r_i < 0 or c_j < 0:
        return 0.0
    cell_open = not t.closed[i][j]
    n_col = t.open_c[j] - cell_open
    if r_i > t.open_r[i] - cell_open or c_j > n_col:
        return 0.0
    if row_law is None:
        row_law = _row_law(_row_params(i, j, t, p), r_i)
    return row_law[r_i] * _binomial_point(n_col, p[j], c_j)


def _quiet(res: int, n_open: int, k: int) -> bool:
    """Whether bit k on an open cell leaves its line, `res` to place in
    `n_open` open cells, forcing nothing: neither spent nor full, or closed."""
    return 0 < res - k < n_open - 1 or res - k == n_open - 1 == 0


def _entry_decision(i, j, t, strategy, p, oracle, rng, diag):
    """Decide the bit at open cell (i, j) and commit its forced fill on `t`.

    Each candidate is filled in place, weighed and retracted; one that
    contradicts weighs 0.  Exact weighs the completion count of the filled
    state, which equals the count with the cell alone committed, since
    forced cells hold in every completion.  Full-line weighs the proposal
    probability of the cells the fill forces times the line weight under the
    column parameters `p`.  Under full-line, `t` being a fixed point, a quiet
    candidate's fill is its cell alone: it is weighed on `t` as it stands,
    with no trial fill.  Every full-line candidate whose fill leaves row i's
    other open cells as they are, quiet or not, reads its row point off one
    convolution of those cells, built at most once per decision.  The
    chosen fill is replayed; under full-line with `refresh` its columns
    update `p`.
    """
    exact = strategy.kind == "exact"
    r, c, n_row = t.r_res[i], t.c_res[j], t.open_r[i]
    row_law = None
    fills = [None, None]
    weights = [0, 0]
    for k in (0, 1):
        quiet = not exact and _quiet(r, t.open_r[i], k) and _quiet(c, t.open_c[j], k)
        if quiet:  # its fill is its cell alone: weigh it on t as it stands
            forced = [(i, j, k)]
        else:
            try:
                forced = fill_in_place([(i, j, k)], t, "binary")
            except ContradictionError:
                continue
        if exact:
            weights[k] = oracle.count_binary_tables(t.r_res, t.c_res, t.closed)
        else:
            prod = 1.0
            for s, l, v in forced:
                prod *= p[l] if v else (1.0 - p[l])
            shared = None
            if t.open_r[i] >= n_row - 1:  # the fill closed no other cell of row i
                if row_law is None:
                    row_law = _row_law(_row_params(i, j, t, p), r)
                shared = row_law
            weights[k] = prod * full_line_weight(i, j, k if quiet else 0, t, p, shared)
        fills[k] = forced
        if not quiet:
            t.retract(forced)
    bit = choose_bit(weights[0], weights[1], rng, diag, (i, j))
    update = not exact and strategy.refresh
    for s, l, v in fills[bit]:
        t.finalize(s, l, v)
        if update:
            p[l] = _param(t.c_res[l], t.open_c[l])
    return bit


def draw_binary_table(base: MaskedTable, strategy: BinaryStrategy, rng, max_restarts: int,
                      diag: SamplerDiagnostics) -> np.ndarray:
    """Fill a copy of `base`, known to hold a table, by the scan; return its entries.

    `base` is filled in place first, so it must be the caller's to give up.
    Nothing here checks margins or feasibility.  Bits, restarts and dead
    states are counted into `diag`, which the last dead state carries.
    """
    oracle = strategy.oracle if strategy.oracle is not None else shared_oracle()
    full_line = strategy.kind == "full-line"
    p_static = None if strategy.refresh or not full_line else _refresh_params(base)
    fill_in_place((), base, "binary", range(base.m + base.n))

    def attempt():
        t = base.copy()
        p = _refresh_params(t) if full_line and strategy.refresh else p_static
        for j in range(t.n):
            for i in range(t.m):
                if not t.closed[i][j]:
                    _entry_decision(i, j, t, strategy, p, oracle, rng, diag)
        if not t.is_complete() or any(t.r_res) or any(t.c_res):
            raise ContradictionError("scan ended with open cells or residual margins")
        return t.entries

    return run_with_restarts(attempt, max_restarts, diag, full_line)


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
    if strategy.kind == "exact":
        # The cached count doubles as the feasibility check, and its query
        # the oracle's limit check; the max-flow test would cost more per
        # draw than the whole exact scan.
        oracle = strategy.oracle if strategy.oracle is not None else shared_oracle()
        if oracle.count_binary_tables(base.r_res, base.c_res, base.mask) == 0:
            raise InfeasibleError("no binary table matches the margins and mask")
    elif not binary_feasible(base.r_res, base.c_res, base.mask):
        raise InfeasibleError("no binary table matches the margins and mask")
    diag = SamplerDiagnostics()
    return draw_binary_table(base, strategy, rng, max_restarts, diag), diag
