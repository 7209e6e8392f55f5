"""Bitwise sampler for nonnegative integer tables with fixed margins.

The table is generated one binary digit plane at a time, on one
`MaskedTable` per attempt, the attempt's only copy.  Within a level every
open cell receives its low bit in scan order, zero-residual lines close
immediately, and at level end all residual margins are even and halve for
the next level.  The front door, every level start and every bit trial
propagate forced cells in place through `table.fill_in_place`.  Bit decisions
come either from exact completion counts or from a factorized approximation
of the conditional cell laws, and the approximate route restarts on dead
states.  Exact tries each candidate in place, counts it and retracts it.
The approximate weight's column law cancels against the scored cell's
conditioned law, so neither is built.  Within a level the column parameters
are fixed, so one `_LevelLaws` per level keeps each row's law of its scanned
(even) cells as a prefix and of its unscanned (plain) cells as suffixes,
and memoises the law of a column's other cells and the conditioned cell
laws, as mass vectors.  A decision convolves row i's prefix with its suffix
once, and one product vector with the law of column j's other cells, split
by parity, weighs both candidates; only a bit 1 that spends a line is tried
in place, for its pins.  A committed bit that spends a row drops the row
laws.  A level that ends with an odd residual, which the factorized weights
cannot see coming, is a dead state too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .counting import CountOracle, shared_oracle
from .diagnostics import SamplerDiagnostics, choose_bit, run_with_restarts
from .errors import ConditioningError, ContradictionError, DeadStateError, InfeasibleError
from .pmf import (ColumnParamScheme, column_parameters, conditioned_cell_pmf, geometric_dist,
                  mixed_column_sum_pmf)
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


_ONE = np.ones(1)  # the law of an empty sum
_ZERO = np.zeros(1)  # a sum whose law is unreachable


def _times(law: np.ndarray, cell, cap: int) -> np.ndarray:
    """Law of `law`'s sum plus an independent cell, cut at {0..cap}; a None cell is unreachable."""
    if cell is None:
        return _ZERO
    if law is _ONE or cell is _ONE:  # an empty sum adds nothing
        return (cell if law is _ONE else law)[: cap + 1]
    return np.convolve(law, cell)[: cap + 1]


def _parity_weights(geo: np.ndarray, rest: np.ndarray, others: np.ndarray, r: int, c: int) -> list:
    """[W0, W1] with W_k the sum over v = k (mod 2) of geo[v] * rest[c - v] * others[r - v].

    `geo` holds (1 - q) q**v.  With the scored cell open, bit k leaves it an
    even remainder x whose law is base[x] = (1 - q*q) q**x, and its seed
    factor q**k / (1 + q) times base[x] is (1 - q) q**(k + x): so W_k is bit
    k's seed factor times its line weight at residuals r - k, c - k, and one
    product vector, split by the parity of v, weighs both candidates.
    """
    lo, hi = max(0, r - len(others) + 1), min(r, c)
    if lo > hi:
        return [0.0, 0.0]
    terms = geo[lo : hi + 1] * rest[c - hi : c - lo + 1][::-1]
    tail = others[r - hi : r - lo + 1][::-1]
    w = [0.0, 0.0]
    w[lo & 1] = float(np.dot(terms[::2], tail[::2]))
    w[1 - (lo & 1)] = float(np.dot(terms[1::2], tail[1::2]))
    return w


class _LevelLaws:
    """The `approx` line laws of one bit level of `t`, kept across its decisions.

    Within a level the column parameters q are fixed, and in the
    column-major scan row i's other open cells at (i, j) are its even cells
    left of j and its plain cells right of j, each conditioned on its own
    column sum.  So each row keeps an even prefix, extended one column at a
    time as the scan passes, and plain suffixes built backward once, and the
    law of its other cells is one convolution of the two.  A column's cells
    change only while it is scanned, unless a committed bit spends a row
    and pins cells outside its column: `drop` then forgets every row's
    laws.  Rows cut their laws at their residual when built, which bounds
    every later residual of the level.  The law of column j's other open
    cells is memoised on (q, cells above, cells below, cap), with the cap
    at the column's level-start residual, and conditioned cell laws on
    their arguments; entries up to a cap do not depend on the cap.
    """

    __slots__ = ("t", "q", "caps", "geo", "rest_laws", "cell_laws", "prefix", "suffix")

    def __init__(self, t: MaskedTable, q):
        self.t = t
        self.q = [float(x) for x in q]
        self.caps = t.c_res[:]
        self.geo = [None] * t.n  # (1 - q) q**v up to the cap, built on a column's first decision
        self.rest_laws: dict = {}
        self.cell_laws: dict = {}
        self.drop()

    def drop(self) -> None:
        """Forget every row's prefix and suffixes."""
        self.prefix = [None] * self.t.m  # per row: (law, columns it covers)
        self.suffix = [None] * self.t.m  # per row: suffix[j] covers the columns right of j

    def _cell(self, l: int, even: bool):
        """Law of an open cell of column l given its column sum, None where that is unreachable."""
        t = self.t
        key = (self.q[l], even, t.open_c[l] - 1, t.c_res[l])
        if key not in self.cell_laws:
            q, _, rest, c = key
            try:  # the rest of column l is all even or all plain, as the cell is
                self.cell_laws[key] = conditioned_cell_pmf(even, q, rest if even else 0,
                                                           0 if even else rest, c)
            except ConditioningError:
                self.cell_laws[key] = None
        return self.cell_laws[key]

    def _suffixes(self, i: int, j: int) -> list:
        """Laws of row i's open cells right of each column from j on, all plain, built backward."""
        t = self.t
        closed, cap = t.closed[i], t.r_res[i]
        out = [_ONE] * t.n
        for l in range(t.n - 1, j, -1):
            out[l - 1] = out[l] if closed[l] else _times(out[l], self._cell(l, False), cap)
        return out

    def rest(self, i: int, j: int) -> np.ndarray:
        """Law of column j's open cells other than (i, j): even above row i, plain below."""
        t = self.t
        above = bisect_left(t.open_in_col(j), i)
        key = (self.q[j], above, t.open_c[j] - 1 - above, self.caps[j])
        law = self.rest_laws.get(key)
        if law is None:
            law = self.rest_laws[key] = mixed_column_sum_pmf(*key)
        return law

    def others(self, i: int, j: int) -> np.ndarray:
        """Law of row i's open cells other than (i, j), cut at row i's residual.

        It is zero where one of those cells' column sums is unreachable.
        """
        t = self.t
        closed, cap = t.closed[i], t.r_res[i]
        law, done = self.prefix[i] or (_ONE, 0)
        for l in range(done, j):  # columns scanned since: their cells hold their bit
            if not closed[l]:
                law = _times(law, self._cell(l, True), cap)
        self.prefix[i] = (law, j)
        if self.suffix[i] is None:
            self.suffix[i] = self._suffixes(i, j)
        return _times(law, self.suffix[i][j], cap)

    def weights(self, i: int, j: int) -> list:
        """Both candidates' weights for the level bit of open cell (i, j), seed factors included.

        Bit 0 never spends a line, nor does bit 1 while both residuals
        exceed 1: both read `_parity_weights`.  A bit 1 that spends row i or
        column j is applied and retracted, for its pins and to refuse a
        stranded line; a pinned cell at or before (i, j) in scan order
        holds its bit and has law factor 1 - q*q, a later one 1 - q.  Of the
        scored cell's lines, a spent one contributes 1, so what remains is
        the law of the other line's other cells at its residual net of the bit.
        """
        t = self.t
        q, r, c = self.q[j], t.r_res[i], t.c_res[j]
        if self.geo[j] is None:
            self.geo[j] = geometric_dist(q, self.caps[j])
        rest, others = self.rest(i, j), self.others(i, j)
        w = _parity_weights(self.geo[j], rest, others, r, c)
        if r > 1 and c > 1:
            return w
        try:
            pinned = _apply_bit(t, i, j, 1)
        except ContradictionError:
            return [w[0], 0.0]
        _retract_bit(t, i, j, 1, pinned)
        prod = q / (1.0 + q)
        for s, l, _ in pinned:
            ql = self.q[l]
            prod *= (1.0 - ql * ql) if (l, s) <= (j, i) else (1.0 - ql)
        if r > 1:  # only column j is spent
            prod *= others[r - 1] if r - 1 < len(others) else 0.0
        elif c > 1:  # only row i is spent
            prod *= rest[c - 1]
        return [w[0], float(prod)]


def approx_bit_weight(i, j, k: int, t: MaskedTable, scheme: ColumnParamScheme) -> float:
    """Factorized line weight for assigning bit k to open cell (i, j).

    `t` is a `MaskedTable` with residual margins in units of the level bit
    and its open-cell counts.  It is assumed scanned in column-major order up
    to (i, j): open cells in columns before j, and in column j at rows up to
    i, already hold their bit and carry an even remainder; later cells are
    untouched.  The weight is the probability of the cell's column
    residual under the mixed even/plain column law times the probability of
    its row residual under a convolution of per-cell laws, each conditioned
    on its own column sum.  The column law cancels against the scored
    cell's conditioned law, which leaves one sum over the cell's even value
    x: base[x] * rest[c - x] * others[r - x], with r, c the residuals net of
    k, `rest` the law of column j's other open cells and `others` that of
    row i's.  This reads the laws of a fresh `_LevelLaws` on `t` through
    `_parity_weights`, the formula decisions use, and divides out the seed
    factor 1 / (1 + q[j]).  Returns 0.0 for unreachable residuals.
    """
    r, c = t.r_res[i] - k, t.c_res[j] - k
    if r < 0 or c < 0:
        return 0.0
    laws = _LevelLaws(t, scheme.q)
    q = laws.q[j]
    w = _parity_weights(geometric_dist(q, c), laws.rest(i, j), laws.others(i, j), r, c)
    return (1.0 + q) * w[0]


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


def _decide(t, i, j, level, strategy, laws, oracle, rng, diag, transposed) -> int:
    """Draw and commit the level bit of open cell (i, j) on `t`.

    Exact applies each candidate in place, weighs its completion count, with
    the scanned open cells up to (i, j) kept even, and retracts it; one that
    strands a line weighs 0.  Approx reads both weights off the level's
    `_LevelLaws`, whose row laws a committed bit that spends row i drops.
    """
    if strategy.kind == "exact":
        weights = [0.0, 0.0]
        forced_even = [[not shut and (l, s) <= (j, i) for l, shut in enumerate(row)]
                       for s, row in enumerate(t.closed)]
        for k in (0, 1):
            try:
                pinned = _apply_bit(t, i, j, k)
            except ContradictionError:
                continue
            # pinned cells lie on zero-residual lines: same count
            weights[k] = oracle.count_integer_tables(t.r_res, t.c_res, t.closed, forced_even)
            _retract_bit(t, i, j, k, pinned)
    else:
        weights = laws.weights(i, j)
    site = (j, i) if transposed else (i, j)  # the caller's cell
    bit = choose_bit(weights[0], weights[1], rng, diag, site, level)
    pinned = _apply_bit(t, i, j, bit)
    if laws is not None and any(l != j for _, l, _ in pinned):
        laws.drop()  # a spent row pinned cells of other columns
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
        laws = (_LevelLaws(t, column_parameters(t.c_res, [m - o for o in t.open_c], m).q)
                if strategy.kind == "approx" else None)
        for j in range(n):
            for i in range(m):
                if not t.closed[i][j] and _decide(t, i, j, b, strategy, laws, oracle, rng, diag,
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
