"""Margin-constrained table state: masks, residuals, open counts, forced fills, validation.

`MaskedTable` keeps its state in Python ints and lists, which the per-cell
loops read and write one scalar at a time; its `entries` and `mask` are fresh
numpy copies.  `fill_in_place` is the package's one propagation routine, run
by every sampler decision.
"""

from __future__ import annotations

import csv
import io
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContradictionError

__all__ = [
    "MarginSpec",
    "MaskedTable",
    "FillResult",
    "deterministic_fill",
    "fill_in_place",
    "validate_table",
    "binary_feasible",
    "entries_to_csv",
    "entries_from_csv",
]


@dataclass(frozen=True)
class MarginSpec:
    """Row and column sum targets; total mass must balance.

    Margins must be integers (numpy integers included); a float raises
    TypeError instead of being truncated.
    """

    r: tuple
    c: tuple

    def __post_init__(self):
        r = tuple(map(operator.index, self.r))
        c = tuple(map(operator.index, self.c))
        if any(x < 0 for x in r) or any(x < 0 for x in c):
            raise ValueError("margins must be nonnegative")
        if sum(r) != sum(c):
            raise ValueError(f"margin totals differ: sum(r)={sum(r)} sum(c)={sum(c)}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)


class MaskedTable:
    """A partially determined table, held in Python ints and lists.

    `closed[i][j]` is True once cell (i, j) is finalized (including cells
    forced to zero up front); `cells` holds finalized values and zeros
    elsewhere, both as lists of row lists.  `r_res`/`c_res` are the margins
    net of finalized cells, and `open_r`/`open_c` count the open cells of
    each row and column, all lists of int.  `entries` and `mask` are fresh
    numpy copies for vectorised callers; writing one leaves the table alone.
    """

    __slots__ = ("m", "n", "cells", "closed", "r_res", "c_res", "open_r", "open_c")

    def __init__(self, entries, mask, r_res, c_res):
        entries = np.asarray(entries, dtype=np.int64)
        mask = np.asarray(mask, dtype=bool)
        self.m, self.n = entries.shape
        self.cells = entries.tolist()
        self.closed = mask.tolist()
        self.r_res = np.asarray(r_res, dtype=np.int64).tolist()
        self.c_res = np.asarray(c_res, dtype=np.int64).tolist()
        self.open_r = (self.n - np.count_nonzero(mask, axis=1)).tolist()
        self.open_c = (self.m - np.count_nonzero(mask, axis=0)).tolist()

    @classmethod
    def from_margins(cls, r, c, forced_zero=None) -> "MaskedTable":
        spec = MarginSpec(tuple(r), tuple(c))
        m, n = len(spec.r), len(spec.c)
        mask = np.zeros((m, n), dtype=bool)
        if forced_zero is not None:
            fz = np.asarray(forced_zero, dtype=bool)
            if fz.shape != (m, n):
                raise ValueError(f"mask shape {fz.shape} does not match ({m}, {n})")
            mask |= fz
        return cls(np.zeros((m, n), dtype=np.int64), mask, spec.r, spec.c)

    @property
    def entries(self) -> np.ndarray:
        """A fresh int64 array of `cells`."""
        return np.array(self.cells, dtype=np.int64).reshape(self.m, self.n)

    @property
    def mask(self) -> np.ndarray:
        """A fresh bool array of `closed`."""
        return np.array(self.closed, dtype=bool).reshape(self.m, self.n)

    def copy(self) -> "MaskedTable":
        out = MaskedTable.__new__(MaskedTable)
        out.m, out.n = self.m, self.n
        out.cells = [row[:] for row in self.cells]
        out.closed = [row[:] for row in self.closed]
        for name in ("r_res", "c_res", "open_r", "open_c"):
            setattr(out, name, getattr(self, name)[:])
        return out

    def is_complete(self) -> bool:
        return not any(self.open_r)

    def open_in_row(self, i: int) -> list:
        """Columns of the open cells of row i, ascending."""
        return [l for l, shut in enumerate(self.closed[i]) if not shut]

    def open_in_col(self, j: int) -> list:
        """Rows of the open cells of column j, ascending."""
        return [s for s, row in enumerate(self.closed) if not row[j]]

    def finalize(self, i: int, j: int, value: int) -> None:
        """Commit a cell value, decrementing both residuals.

        Raises ContradictionError if the cell is already finalized, the
        value is negative, or either residual would go negative.
        """
        if self.closed[i][j]:
            raise ContradictionError(f"cell ({i}, {j}) already finalized")
        if value < 0:
            raise ContradictionError(f"negative value {value} at ({i}, {j})")
        r, c = self.r_res[i], self.c_res[j]
        if r < value or c < value:
            raise ContradictionError(f"value {value} at ({i}, {j}) exceeds residuals r={r} c={c}")
        self.cells[i][j] = value
        self.closed[i][j] = True
        self.r_res[i] = r - value
        self.c_res[j] = c - value
        self.open_r[i] -= 1
        self.open_c[j] -= 1

    def retract(self, forced) -> None:
        """Undo the assignments of a forced list, last one first."""
        for i, j, value in reversed(forced):
            self.cells[i][j] = 0
            self.closed[i][j] = False
            self.r_res[i] += value
            self.c_res[j] += value
            self.open_r[i] += 1
            self.open_c[j] += 1


@dataclass
class FillResult:
    """Outcome of a propagation pass: the forced assignments and new state."""

    forced: list
    table: MaskedTable


def deterministic_fill(seeds, t: MaskedTable, mode: str = "integer") -> FillResult:
    """Apply seed assignments to a copy of `t` and propagate all forced cells.

    `fill_in_place` from every line, on a copy: `t` need not be a fixed
    point and is left as it was.  Returns the forced list (seeds first, then
    derived cells in propagation order); replaying it onto the input table
    reproduces the result.  The fixed point does not depend on seed order.
    """
    out = t.copy()
    return FillResult(forced=fill_in_place(seeds, out, mode, range(t.m + t.n)), table=out)


def fill_in_place(seeds, t: MaskedTable, mode: str, lines=()) -> list:
    """Commit seed assignments on `t` itself and propagate forced cells.

    Line x is row x for x < t.m and column x - t.m otherwise.  Propagation
    starts from the lines of the seeds, then from `lines`: none suffice when
    `t` is a fixed point of the mode, every line when it need not be.  Each
    mode closes a line whose residual is spent (its open cells take 0) and
    refuses a line left with residual and no open cells.  "binary" also
    fills a line whose residual equals its open count with ones; "integer"
    gives a line's only open cell the whole residual; "zero" adds no rule,
    for a bit-level scan, whose open cells still take even remainders.
    Returns the forced list, seeds first, for `t.retract`.  On
    ContradictionError `t` is restored before the raise.
    """
    if mode not in ("integer", "binary", "zero"):
        raise ValueError(f"unknown mode {mode!r}")
    m = t.m
    forced: list = []
    queue = deque()
    queued = [False] * (m + t.n)
    cells = [(int(i), int(j), int(v)) for i, j, v in seeds]
    for i, j, v in cells:
        if mode == "binary" and v not in (0, 1):
            raise ContradictionError(f"binary cell ({i}, {j}) assigned {v}")
    try:
        while True:
            for cell in cells:
                i, j, value = cell
                t.finalize(i, j, value)
                forced.append(cell)
                if not queued[i]:
                    queued[i] = True
                    queue.append(i)
                if not queued[m + j]:
                    queued[m + j] = True
                    queue.append(m + j)
            for x in lines:
                if not queued[x]:
                    queued[x] = True
                    queue.append(x)
            lines = cells = ()
            while queue:
                x = queue.popleft()
                queued[x] = False
                if x < m:
                    kind, idx, res, n_open = "r", x, t.r_res[x], t.open_r[x]
                else:
                    kind, idx = "c", x - m
                    res, n_open = t.c_res[idx], t.open_c[idx]
                if n_open == 0:
                    if res != 0:
                        raise ContradictionError(
                            f"line {kind}{idx} has residual {res} and no open cells"
                        )
                elif res == 0:
                    value = 0
                    break
                elif mode == "binary":
                    if res > n_open:
                        raise ContradictionError(
                            f"line {kind}{idx} needs {res} ones in {n_open} open cells"
                        )
                    if res == n_open:
                        value = 1
                        break
                elif n_open == 1 and mode == "integer":
                    value = res
                    break
            else:
                return forced
            if x < m:
                cells = [(x, l, value) for l in t.open_in_row(x)]
            else:
                cells = [(s, idx, value) for s in t.open_in_col(idx)]
    except ContradictionError:
        t.retract(forced)
        raise


def validate_table(entries, r, c, forced_zero=None, mode: str = "integer") -> bool:
    """Check a fully determined table against margins, mask, and value domain."""
    a = np.asarray(entries, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    if a.shape != (len(r), len(c)):
        return False
    if a.min(initial=0) < 0:
        return False
    if mode == "binary" and a.max(initial=0) > 1:
        return False
    if forced_zero is not None and np.any(a[np.asarray(forced_zero, dtype=bool)] != 0):
        return False
    return bool(np.array_equal(a.sum(axis=1), r) and np.array_equal(a.sum(axis=0), c))


def binary_feasible(r_res, c_res, forced_zero=None) -> bool:
    """Whether a 0/1 table with the given residual margins and mask exists.

    Reduces to bipartite maximum flow: rows supply r_res, columns demand
    c_res, each open cell carries capacity one.
    """
    # scipy loads on first use, so importing the package does not pay for it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    r_res = np.asarray(r_res, dtype=np.int64)
    c_res = np.asarray(c_res, dtype=np.int64)
    if r_res.min(initial=0) < 0 or c_res.min(initial=0) < 0:
        return False
    total = int(r_res.sum())
    if total != int(c_res.sum()):
        return False
    if total == 0:
        return True
    m, n = len(r_res), len(c_res)
    if forced_zero is None:
        open_mask = np.ones((m, n), dtype=bool)
    else:
        open_mask = ~np.asarray(forced_zero, dtype=bool)
    if np.any(r_res > open_mask.sum(axis=1)) or np.any(c_res > open_mask.sum(axis=0)):
        return False
    # node layout: 0 = source, 1..m rows, m+1..m+n columns, m+n+1 = sink
    src, sink = 0, m + n + 1
    rows_idx, cols_idx = np.nonzero(open_mask)
    data = np.concatenate([r_res, np.ones(len(rows_idx), dtype=np.int64), c_res])
    row_nodes = np.concatenate([np.full(m, src), rows_idx + 1, np.arange(n) + m + 1])
    col_nodes = np.concatenate([np.arange(m) + 1, cols_idx + m + 1, np.full(n, sink)])
    graph = csr_matrix((data, (row_nodes, col_nodes)), shape=(m + n + 2, m + n + 2))
    return int(maximum_flow(graph, src, sink).flow_value) == total


def entries_to_csv(entries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in np.asarray(entries, dtype=np.int64):
        writer.writerow([int(x) for x in row])
    return buf.getvalue()


def entries_from_csv(s: str) -> np.ndarray:
    rows = [[int(x) for x in row] for row in csv.reader(io.StringIO(s)) if row]
    return np.asarray(rows, dtype=np.int64)
