"""Random Latin squares assembled bit by bit from binary tables.

A square on symbols 1..n is built from internal values v = symbol - 1.  At
level i the cells are partitioned by v mod 2**i; within each residue class,
the cells whose value gets bit i set form a binary table whose row and column
sums are all equal, and a fresh draw of that table decides the bit.  After
all levels every line carries each residue exactly once.  One pass over all
levels and classes is one attempt of the shared restart loop,
`diagnostics.run_with_restarts`.

Class tables go straight to the 0/1 scan, `draw_binary_table`, counting into
the cascade's one diagnostics record.  Each line of a class is open in the
same k >= target cells, and a k-regular bipartite graph is a union of k
perfect matchings (König, 1916), so the table exists without a max-flow test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .binary_sampler import BinaryStrategy, draw_binary_table
from .counting import iter_latin_squares
from .diagnostics import SamplerDiagnostics, run_with_restarts
from .errors import ContradictionError, DeadStateError
from .table import MaskedTable

__all__ = [
    "LatinSquare",
    "RestartPolicy",
    "enumerate_latin_squares",
    "level_class_targets",
    "sample_latin_square",
]


@dataclass(frozen=True)
class LatinSquare:
    """An n x n grid of symbols 1..n, each once per row and per column."""

    values: tuple

    def __post_init__(self):
        frozen = tuple(tuple(int(x) for x in row) for row in self.values)
        object.__setattr__(self, "values", frozen)

    @property
    def n(self) -> int:
        return len(self.values)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.int64)

    def is_valid(self) -> bool:
        a = self.to_array()
        n = self.n
        if a.shape != (n, n):
            return False
        want = set(range(1, n + 1))
        for i in range(n):
            if set(a[i].tolist()) != want or set(a[:, i].tolist()) != want:
                return False
        return True


def enumerate_latin_squares(n: int) -> list:
    """Every Latin square of order n, within the shared oracle's order limit."""
    return [LatinSquare(values=grid) for grid in iter_latin_squares(n)]


@dataclass(frozen=True)
class RestartPolicy:
    """Escalation rule for cascade dead states.

    "retry_level" spends `budget` restarts inside the failing class table,
    then one full restart of the cascade before giving up; "restart_all"
    restarts the whole cascade up to `budget` times with no inner retries;
    "abort" fails on the first dead state.  A float budget raises TypeError.
    """

    scope: str = "retry_level"
    budget: int = 1000

    def __post_init__(self):
        if self.scope not in ("retry_level", "restart_all", "abort"):
            raise ValueError(f"unknown restart scope {self.scope!r}")
        object.__setattr__(self, "budget", operator.index(self.budget))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def level_class_targets(n: int, i: int, b: int) -> int:
    """Per-line count of cells in residue class b whose value gets bit i.

    Counts v in [0, n) with v mod 2**i == b and bit i of v set; these are
    v = b + 2**i + s * 2**(i+1).  Every row and every column of a Latin
    square holds each value exactly once, so the count is the same for all
    lines.
    """
    if not 0 <= b < (1 << i):
        raise ValueError(f"residue {b} out of range for level {i}")
    a = b + (1 << i)
    if a >= n:
        return 0
    return (n - 1 - a) // (1 << (i + 1)) + 1


def sample_latin_square(
    n: int,
    strategy: BinaryStrategy | None = None,
    policy: RestartPolicy | None = None,
    seed=None,
    rng=None,
):
    """Draw a random Latin square of order n.

    The draw is not uniform under either strategy.  Each class table is
    drawn on its own, without weighting by how many squares complete it, so
    even exact class tables leave the square biased (ROADMAP.md tabulates
    the measured bias).  Returns (square, diagnostics).  `strategy` configures the inner binary
    table sampler; `policy` says how to escalate when a class table dies.
    Raises DeadStateError once the policy is exhausted, with the failing
    (level, residue) recorded in the diagnostics.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    strategy = strategy if strategy is not None else BinaryStrategy()
    policy = policy if policy is not None else RestartPolicy()
    rng = rng if rng is not None else np.random.default_rng(seed)
    levels = (n - 1).bit_length()
    diag = SamplerDiagnostics(levels=levels)
    if policy.scope == "retry_level":
        inner_budget, outer_attempts = policy.budget, 2
    elif policy.scope == "restart_all":
        inner_budget, outer_attempts = 0, policy.budget + 1
    else:
        inner_budget, outer_attempts = 0, 1

    def attempt():
        t = np.zeros((n, n), dtype=np.int64)
        for i in range(levels):
            for b in range(1 << i):
                target = level_class_targets(n, i, b)
                if target == 0:
                    continue  # bit i stays clear across the class
                # adding bit i leaves t mod 2**i alone, so the class is fixed for the level
                base = MaskedTable.from_margins([target] * n, [target] * n, t % (1 << i) != b)
                k = base.open_r[0]
                if k < target or set(base.open_r + base.open_c) != {k}:
                    raise ContradictionError(f"residue class {b} at level {i} is not regular")
                try:
                    entries = draw_binary_table(base, strategy, rng, inner_budget, diag)
                except DeadStateError as e:
                    diag.failure_site = (i, b)
                    raise DeadStateError(
                        f"cascade dead at level {i}, residue {b}", diagnostics=diag
                    ) from e
                t += entries << i
        return LatinSquare(values=tuple(tuple(int(x) + 1 for x in row) for row in t))

    return run_with_restarts(attempt, outer_attempts - 1, diag, True), diag
