"""Bitwise sampler for nonnegative integer tables with fixed margins.

The table is generated one binary digit plane at a time, on one
`MaskedTable` per attempt, the attempt's only copy.  Within a level every
open cell receives its low bit in scan order, zero-residual lines close
immediately, and at level end all residual margins are even and halve for
the next level.  The front door, every level start and every bit trial
propagate forced cells in place through `table.fill_in_place`.  Bit decisions
come either from exact completion counts or from a factorized approximation
of the conditional cell laws; both try each candidate in place, weigh it and
retract it, and the approximate route restarts on dead states.  The
approximate weight's column law cancels against the scored cell's
conditioned law, so neither is built: a decision builds the law of row i's
other open cells, the scored cell's own law and the law of column j's other
cells once, and both candidates read them, unless a candidate pins cells and
rebuilds them from its pinned state.  Within a level the column parameters
are fixed, so the column and conditioned cell laws are memoised per level on
the level's `ColumnParamScheme`, as mass vectors.  A level that ends with an
odd residual, which the factorized weights cannot see coming, is a dead
state too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .counting import CountOracle, shared_oracle
from .diagnostics import SamplerDiagnostics, choose_bit, run_with_restarts
from .errors import ConditioningError, ContradictionError, DeadStateError, InfeasibleError
from .pmf import ColumnParamScheme, column_parameters, conditioned_cell_pmf, mixed_column_sum_pmf
from .table import MaskedTable, fill_in_place

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


# The line laws depend on their column only through its parameter, so the
# per-level memos are keyed by the value of q: columns sharing q share laws.


def _column_law(scheme: ColumnParamScheme, q, n_even: int, n_plain: int, c: int) -> np.ndarray:
    key = (float(q), n_even, n_plain, c)
    law = scheme.column_laws.get(key)
    if law is None:
        law = mixed_column_sum_pmf(q, n_even, n_plain, c)
        law.flags.writeable = False
        scheme.column_laws[key] = law
    return law


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


def _line_laws(i, j, t: MaskedTable, scheme: ColumnParamScheme, r_cap: int, c_cap: int):
    """The laws (others, base, rest) that `approx_bit_weight` reads for cell (i, j) of `t`.

    `others` convolves row i's open cells other than (i, j), each conditioned
    on its own column sum, truncated to {0..r_cap}; it is zero where one of
    those column sums is unreachable.  `base` is the scored cell's law, twice
    a geometric(q**2) variable while the cell is open and a point mass at 0
    once it is closed, and `rest` the law of column j's other open cells,
    even above row i and plain below it, both truncated to {0..c_cap}.
    """
    q = scheme.q
    col_open = t.open_c
    cell_open = not t.closed[i][j]
    above = bisect_left(t.open_in_col(j), i)  # open cells of column j above row i
    base = _column_law(scheme, q[j], int(cell_open), 0, c_cap)
    rest = _column_law(scheme, q[j], above, col_open[j] - cell_open - above, c_cap)
    others = None
    for l in t.open_in_row(i):
        if l == j:
            continue
        even = l < j  # cells of earlier columns hold their bit
        rest_even = col_open[l] - 1 if even else 0
        cell = _cell_law(scheme, q[l], even, rest_even, col_open[l] - 1 - rest_even, t.c_res[l])
        if cell is None:
            return np.zeros(1), base, rest
        # row law truncated to {0..r_cap} after every convolution
        others = cell if others is None else np.convolve(others, cell)[: r_cap + 1]
    return (np.ones(1) if others is None else others), base, rest


def approx_bit_weight(i, j, k: int, t: MaskedTable, scheme: ColumnParamScheme, laws=None) -> float:
    """Factorized weight for assigning bit k to cell (i, j).

    `t` is a `MaskedTable` with residual margins in units of the level bit
    and its open-cell counts.  It is assumed scanned in column-major order up
    to (i, j): open cells in columns before j, and in column j at rows up to
    i, already hold their bit and carry an even remainder; later cells are
    untouched.  The weight is the probability of the cell's column
    residual under the mixed even/plain column law times the probability of
    its row residual under a convolution of per-cell laws, each conditioned
    on its own column sum.  The column law cancels against the scored
    cell's conditioned law, which leaves one sum over the cell's value x:
    base[x] * rest[c - x] * others[r - x], with the laws of `_line_laws` and
    the residuals r, c net of k.  `laws`, when given, are `_line_laws` of
    `t` with caps of at least those residuals, so that both candidates of a
    decision read one build.  Returns 0.0 for unreachable residuals.  The
    column and cell laws are memoised on `scheme`.
    """
    r_i = t.r_res[i] - k
    c_j = t.c_res[j] - k
    if r_i < 0 or c_j < 0:
        return 0.0
    others, base, rest = laws if laws is not None else _line_laws(i, j, t, scheme, r_i, c_j)
    lo = max(0, r_i - len(others) + 1)
    hi = min(r_i, c_j)
    if lo > hi:
        return 0.0
    xs = slice(lo, hi + 1)
    return float(np.dot(base[xs] * rest[c_j - hi : c_j - lo + 1][::-1],
                        others[r_i - hi : r_i - lo + 1][::-1]))


def _apply_bit(t: MaskedTable, i: int, j: int, k: int) -> list:
    """Commit candidate bit k at open cell (i, j) of `t` and close spent lines.

    The bit leaves the cell open with an even remainder; so do the open cells
    before it in column-major scan order, which hold their bit already.  Row
    i, then column j, closes under `fill_in_place`'s zero-residual rule if
    its residual is spent.  Returns the pinned cells, row i's in column
    order then column j's in row order, for `_retract_bit`.  Raises
    ContradictionError, with `t` restored, when the branch strands a line.
    """
    t.r_res[i] -= k
    t.c_res[j] -= k
    if t.r_res[i] and t.c_res[j]:  # neither line is spent: nothing to pin
        return []
    try:
        return fill_in_place((), t, "zero", (i, t.m + j))
    except ContradictionError:
        t.r_res[i] += k
        t.c_res[j] += k
        raise


def _retract_bit(t: MaskedTable, i: int, j: int, k: int, pinned: list) -> None:
    """Undo `_apply_bit(t, i, j, k)`, which pinned `pinned`."""
    t.retract(pinned)
    t.r_res[i] += k
    t.c_res[j] += k


def _decide(t, i, j, level, strategy, scheme, oracle, rng, diag, transposed) -> int:
    """Draw and commit the level bit of open cell (i, j) on `t`.

    Each candidate is applied in place, weighed and retracted; one that
    strands a line weighs 0.  Exact weighs its completion count, with the
    scanned open cells up to (i, j) kept even.  Approx weighs the proposal
    probability of the decisions it forces times its line weight.
    """
    weights = [0.0, 0.0]
    if strategy.kind == "exact":
        forced_even = [[not shut and (l, s) <= (j, i) for l, shut in enumerate(row)]
                       for s, row in enumerate(t.closed)]
    else:  # a candidate that pins nothing leaves these laws as they are
        laws = _line_laws(i, j, t, scheme, t.r_res[i], t.c_res[j])
    for k in (0, 1):
        try:
            pinned = _apply_bit(t, i, j, k)
        except ContradictionError:
            continue
        if strategy.kind == "exact":  # pinned cells lie on zero-residual lines: same count
            weights[k] = oracle.count_integer_tables(t.r_res, t.c_res, t.closed, forced_even)
        else:
            q = scheme.q
            prod = (q[j] if k else 1.0) / (1.0 + q[j])
            for s, l, _ in pinned:  # cells at or before (i, j) in scan order hold their bit
                prod *= (1.0 - q[l] * q[l]) if (l, s) <= (j, i) else (1.0 - q[l])
            weights[k] = prod * approx_bit_weight(i, j, 0, t, scheme, None if pinned else laws)
        _retract_bit(t, i, j, k, pinned)
    site = (j, i) if transposed else (i, j)  # the caller's cell
    bit = choose_bit(weights[0], weights[1], rng, diag, site, level)
    _apply_bit(t, i, j, bit)
    return bit


def _transpose(t: MaskedTable) -> MaskedTable:
    """A new table holding the transpose of `t`, rows and columns swapped."""
    return MaskedTable(t.entries.T, t.mask.T, t.c_res, t.r_res)


def _run_levels(base, levels, strategy, oracle, rng, diag, transposed) -> np.ndarray:
    """One attempt: scan the levels on a copy of the filled `base`, return its entries.

    Dead states name the caller's cells, also when `base` is its transpose.
    """
    t = base.copy()
    m, n = t.m, t.n
    assembled = [row[:] for row in base.cells]
    for b in range(levels):
        if b > 0:
            try:
                forced = fill_in_place((), t, "integer", range(m + n))
            except ContradictionError as e:
                if transposed:  # the caller's orientation strands too: name its lines
                    try:
                        fill_in_place((), _transpose(t), "integer", range(m + n))
                    except ContradictionError as caller_e:
                        e = caller_e
                raise DeadStateError(f"level {b} start: {e}") from e
            for fi, fj, v in forced:
                assembled[fi][fj] += v << b
        scheme = (column_parameters(t.c_res, [m - o for o in t.open_c], m)
                  if strategy.kind == "approx" else None)
        for j in range(n):
            for i in range(m):
                if not t.closed[i][j] and _decide(t, i, j, b, strategy, scheme, oracle, rng, diag,
                                                  transposed):
                    assembled[i][j] += 1 << b
        if any(x & 1 for x in t.r_res + t.c_res):
            # a line stranded off the scored row and column: restart
            raise DeadStateError(f"level {b} left an odd residual")
        t.r_res = [x >> 1 for x in t.r_res]
        t.c_res = [x >> 1 for x in t.c_res]
    if any(t.r_res) or any(t.c_res):
        raise ContradictionError("margins not exhausted after final level")
    return np.array(assembled, dtype=np.int64).reshape(m, n)


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
    ValueError when `max_restarts` is negative.  Errors and dead states name
    the caller's rows, columns and cells under either scan.
    """
    strategy = strategy if strategy is not None else BitSamplerStrategy()
    if scan not in ("column", "row"):
        raise ValueError(f"unknown scan order {scan!r}")
    rng = rng if rng is not None else np.random.default_rng(seed)
    base = MaskedTable.from_margins(r, c, forced_zero)
    oracle = strategy.oracle if strategy.oracle is not None else shared_oracle()
    if strategy.kind == "exact":  # the count's query checks the oracle's limits
        if oracle.count_integer_tables(base.r_res, base.c_res, base.mask) == 0:
            raise InfeasibleError("margins admit no table under the mask")
    levels = max(base.r_res + base.c_res, default=0).bit_length()
    try:
        fill_in_place((), base, "integer", range(base.m + base.n))
    except ContradictionError as e:
        raise InfeasibleError(f"margins admit no table under the mask: {e}") from e
    transposed = scan == "row"
    if transposed:  # the row scan is the column scan of the transpose
        base = _transpose(base)
    diag = SamplerDiagnostics(levels=levels)
    entries = run_with_restarts(
        lambda: _run_levels(base, levels, strategy, oracle, rng, diag, transposed),
        max_restarts, diag, strategy.kind == "approx",
    )
    if retain_bit_levels:
        diag.bit_levels = [((entries >> b) & 1).astype(np.int64) for b in range(levels)]
    if transposed:
        entries = entries.T.copy()
        if diag.bit_levels is not None:
            diag.bit_levels = [lvl.T.copy() for lvl in diag.bit_levels]
    return entries, diag
