"""Bitwise sampler for nonnegative integer tables with fixed margins.

The table is generated one binary digit plane at a time.  Within a level
every open cell receives its low bit in scan order, zero-residual lines close
immediately, and at level end all residual margins are even and halve for the
next level.  Bit decisions come either from exact completion counts or from a
factorized approximation of the conditional cell laws; the approximate route
restarts on dead states.  Within a level the column parameters are fixed, so
the approximate route memoises its line laws per level on the level's
`ColumnParamScheme`: each column factor as one float, each conditioned cell
law as its mass vector.  A level that ends with an odd residual, which the
factorized weights cannot see coming, is a dead state too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import CountOracle, shared_oracle
from .diagnostics import SamplerDiagnostics, choose_bit, run_with_restarts
from .errors import ConditioningError, ContradictionError, DeadStateError, InfeasibleError
from .pmf import ColumnParamScheme, column_parameters, conditioned_cell_pmf, mixed_column_sum_pmf
from .table import MaskedTable, deterministic_fill

__all__ = [
    "BitSamplerStrategy",
    "approx_bit_weight",
    "sample_contingency_table",
]


@dataclass
class BitSamplerStrategy:
    """Per-bit decision rule.

    kind "exact" draws each bit from completion counts (small instances
    only); "approx" weighs the two candidates by a product of factorized
    line laws and relies on restarts when both weights vanish.
    """

    kind: str = "approx"
    oracle: CountOracle | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "approx"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")


def _completion_counts(i, j, t, forced_even, oracle) -> list:
    """Completions of state `t` (r_res, c_res, mask) with bit 0 and bit 1 at
    (i, j): cell (i, j) and the `forced_even` cells keep even remainders."""
    fe = forced_even.copy()
    fe[i, j] = True
    counts = []
    for k in (0, 1):
        r = t.r_res.copy()
        c = t.c_res.copy()
        r[i] -= k
        c[j] -= k
        counts.append(oracle.count_integer_tables(r, c, t.mask, fe))
    return counts


# The line laws depend on their column only through its parameter, so the
# per-level memos are keyed by the value of q: columns sharing q share laws.


def _column_factor(scheme: ColumnParamScheme, q, n_even: int, n_plain: int, c: int) -> float:
    key = (float(q), n_even, n_plain, c)
    factor = scheme.column_factors.get(key)
    if factor is None:
        law = mixed_column_sum_pmf(q, n_even, n_plain, c)
        factor = float(law[c]) if c < len(law) else 0.0
        scheme.column_factors[key] = factor
    return factor


def _cell_law(scheme: ColumnParamScheme, q, cell_even: bool, rest_even: int, rest_plain: int,
              c: int) -> np.ndarray | None:
    """Mass vector of the conditioned cell law, None where its column sum is unreachable."""
    key = (float(q), cell_even, rest_even, rest_plain, c)
    if key in scheme.cell_laws:
        return scheme.cell_laws[key]
    try:
        masses = conditioned_cell_pmf(cell_even, q, rest_even, rest_plain, c)
        masses.flags.writeable = False
    except ConditioningError:
        masses = None
    scheme.cell_laws[key] = masses
    return masses


def approx_bit_weight(i, j, k: int, t, scheme: ColumnParamScheme) -> float:
    """Factorized weight for assigning bit k to cell (i, j).

    `t` is any state with residual margins `r_res`, `c_res` and a closed-cell
    `mask`, such as a `MaskedTable`.  It is assumed scanned in column-major
    order up to (i, j): open cells in columns before j, and in column j at
    rows up to i, already hold their bit and carry an even remainder; later
    cells are untouched.  The weight is the probability of the cell's column
    residual under the mixed even/plain column law times the probability of
    its row residual under a convolution of per-cell laws, each conditioned
    on its own column sum.  The candidate bit is folded into both residuals
    up front.  Returns 0.0 for unreachable residuals.  The line laws are
    memoised on `scheme`.
    """
    q = scheme.q
    r_i = int(t.r_res[i]) - k
    c_j = int(t.c_res[j]) - k
    if r_i < 0 or c_j < 0:
        return 0.0
    open_cells = ~t.mask
    col_open = np.count_nonzero(open_cells, axis=0).tolist()
    above = int(np.count_nonzero(open_cells[:i, j]))  # open cells of column j above row i
    n_even = above + int(open_cells[i, j])
    col_factor = _column_factor(scheme, q[j], n_even, col_open[j] - n_even, c_j)
    if col_factor <= 0.0:
        return 0.0
    conv = None
    for l in np.flatnonzero(open_cells[i]).tolist():
        if l < j:
            cell_even, rest_even = True, col_open[l] - 1
        elif l == j:
            cell_even, rest_even = True, above
        else:
            cell_even, rest_even = False, 0
        rest_plain = col_open[l] - 1 - rest_even
        c_l = c_j if l == j else int(t.c_res[l])
        cell = _cell_law(scheme, q[l], cell_even, rest_even, rest_plain, c_l)
        if cell is None:
            return 0.0
        # row law truncated to {0..r_i} after every convolution
        conv = cell if conv is None else np.convolve(conv, cell)[: r_i + 1]
    if conv is None:
        return col_factor if r_i == 0 else 0.0
    return col_factor * float(conv[r_i]) if r_i < conv.size else 0.0


class _LevelState:
    """Mutable within-level state; margins are in units of the level bit.

    `mask` marks cells whose level bit is decided or pinned to remainder 0;
    `pending` marks decided cells that keep an even remainder.
    """

    __slots__ = ("r_res", "c_res", "mask", "pending")

    def __init__(self, r_res, c_res, mask, pending):
        self.r_res = r_res
        self.c_res = c_res
        self.mask = mask
        self.pending = pending

    def copy(self) -> "_LevelState":
        return _LevelState(
            self.r_res.copy(), self.c_res.copy(), self.mask.copy(), self.pending.copy()
        )

    def adopt(self, other: "_LevelState") -> None:
        self.r_res, self.c_res = other.r_res, other.c_res
        self.mask, self.pending = other.mask, other.pending


def _close_row(st: _LevelState, i: int, q, acc) -> None:
    # residual hit zero: pin every remaining cell of the row to remainder 0
    for l in np.flatnonzero(~st.mask[i]):
        acc[0] *= (1.0 - q[l] * q[l]) if st.pending[i, l] else (1.0 - q[l])
        st.mask[i, l] = True
        st.pending[i, l] = False
        if st.c_res[l] > 0 and bool(st.mask[:, l].all()):
            raise ContradictionError(f"column {l} stranded with residual {st.c_res[l]}")


def _close_col(st: _LevelState, j: int, q, acc) -> None:
    for s in np.flatnonzero(~st.mask[:, j]):
        acc[0] *= (1.0 - q[j] * q[j]) if st.pending[s, j] else (1.0 - q[j])
        st.mask[s, j] = True
        st.pending[s, j] = False
        if st.r_res[s] > 0 and bool(st.mask[s].all()):
            raise ContradictionError(f"row {s} stranded with residual {st.r_res[s]}")


def _apply_bit(st: _LevelState, i: int, j: int, k: int, q, acc) -> None:
    """Commit candidate bit k at open cell (i, j) and propagate closures.

    Multiplies into acc[0] the proposal probability of every decision the
    move forces, the bit itself included.  Raises ContradictionError when
    the branch strands a line.
    """
    acc[0] *= (q[j] if k else 1.0) / (1.0 + q[j])
    if k:
        if st.r_res[i] == 0 or st.c_res[j] == 0:
            raise ContradictionError(f"bit 1 at ({i}, {j}) exceeds a zero residual")
        st.r_res[i] -= 1
        st.c_res[j] -= 1
    st.pending[i, j] = True
    if st.r_res[i] == 0:
        _close_row(st, i, q, acc)
    if st.c_res[j] == 0:
        _close_col(st, j, q, acc)


def _decide(st, i, j, level, strategy, scheme, oracle, rng, diag) -> int:
    """Draw and commit the level bit of open cell (i, j).

    Exact: weights are completion counts.  Approx: each candidate is applied
    to a trial copy, weighted by the proposal probability of the decisions
    it forces times its line weight; a candidate that strands a line weighs 0.
    """
    if strategy.kind == "exact":
        w0, w1 = _completion_counts(i, j, st, st.pending, oracle)
        bit = choose_bit(w0, w1, rng, diag, (i, j), level)
        _apply_bit(st, i, j, bit, scheme.q, [1.0])
        return bit
    trials = [None, None]
    weights = [0.0, 0.0]
    for k in (0, 1):
        tr = st.copy()
        acc = [1.0]
        try:
            _apply_bit(tr, i, j, k, scheme.q, acc)
        except ContradictionError:
            continue
        trials[k] = tr
        weights[k] = acc[0] * approx_bit_weight(i, j, 0, tr, scheme)
    bit = choose_bit(weights[0], weights[1], rng, diag, (i, j), level)
    st.adopt(trials[bit])
    return bit


def _run_levels(pre, levels, strategy, oracle, rng, diag) -> np.ndarray:
    m, n = pre.table.m, pre.table.n
    assembled = np.zeros((m, n), dtype=np.int64)
    for fi, fj, v in pre.forced:
        assembled[fi, fj] += v
    perm = pre.table.mask.copy()
    r = pre.table.r_res.copy()
    c = pre.table.c_res.copy()
    scratch = np.zeros((m, n), dtype=np.int64)
    for b in range(levels):
        if b > 0:
            try:
                fill = deterministic_fill([], MaskedTable(scratch, perm, r, c), mode="integer")
            except ContradictionError as e:
                raise DeadStateError(f"level {b} start: {e}") from e
            for fi, fj, v in fill.forced:
                assembled[fi, fj] += v << b
            perm, r, c = fill.table.mask, fill.table.r_res, fill.table.c_res
        h = np.count_nonzero(perm, axis=0)
        scheme = column_parameters(c, h, m)
        st = _LevelState(r, c, perm, np.zeros((m, n), dtype=bool))
        for j in range(n):
            for i in range(m):
                if st.mask[i, j]:
                    continue
                bit = _decide(st, i, j, b, strategy, scheme, oracle, rng, diag)
                if bit:
                    assembled[i, j] += 1 << b
        perm, r, c = st.mask, st.r_res, st.c_res
        if not bool((st.pending | perm).all()):
            raise ContradictionError(f"level {b} scan left an undecided cell")
        if np.any(r & 1) or np.any(c & 1):
            # a line stranded off the scored row and column: restart
            raise DeadStateError(f"level {b} left an odd residual")
        r >>= 1
        c >>= 1
    if np.any(r) or np.any(c):
        raise ContradictionError("margins not exhausted after final level")
    return assembled


def sample_contingency_table(
    r,
    c,
    forced_zero=None,
    strategy: BitSamplerStrategy | None = None,
    seed=None,
    rng=None,
    max_restarts: int = 1000,
    retain_bit_levels: bool = False,
    scan: str = "column",
):
    """Draw a nonnegative integer table with the given margins.

    The draw is uniform under the "exact" strategy only; "approx" draws are
    biased (ROADMAP.md tabulates the measured bias).  Returns
    (entries, diagnostics).  `forced_zero` marks structurally zero
    cells; `scan` is "column" (default) or "row" for the per-level traversal
    order; `max_restarts` bounds dead-state restarts of the approximate
    strategy.  Raises InfeasibleError when propagation proves the margins
    inconsistent, DeadStateError when the restart budget runs out and
    ValueError when `max_restarts` is negative.
    """
    strategy = strategy if strategy is not None else BitSamplerStrategy()
    if scan not in ("column", "row"):
        raise ValueError(f"unknown scan order {scan!r}")
    transposed = scan == "row"
    if transposed:
        r, c = c, r
        if forced_zero is not None:
            forced_zero = np.asarray(forced_zero, dtype=bool).T
    rng = rng if rng is not None else np.random.default_rng(seed)
    base = MaskedTable.from_margins(r, c, forced_zero)
    oracle = strategy.oracle if strategy.oracle is not None else shared_oracle()
    if strategy.kind == "exact":
        oracle.check_integer_limits(base.r_res.tolist(), base.c_res.tolist())
        if oracle.count_integer_tables(base.r_res, base.c_res, base.mask) == 0:
            raise InfeasibleError("margins admit no table under the mask")
    try:
        pre = deterministic_fill([], base, mode="integer")
    except ContradictionError as e:
        raise InfeasibleError(f"margins admit no table under the mask: {e}") from e
    top = int(max(base.r_res.max(initial=0), base.c_res.max(initial=0)))
    levels = top.bit_length()
    diag = SamplerDiagnostics()
    diag.levels = levels
    entries = run_with_restarts(
        lambda: _run_levels(pre, levels, strategy, oracle, rng, diag),
        max_restarts, diag, strategy.kind == "approx",
    )
    if retain_bit_levels:
        diag.bit_levels = [((entries >> b) & 1).astype(np.int64) for b in range(levels)]
    if transposed:
        entries = entries.T.copy()
        if diag.bit_levels is not None:
            diag.bit_levels = [lvl.T.copy() for lvl in diag.bit_levels]
    return entries, diag
