"""Random Latin squares assembled bit by bit from binary tables.

A square on symbols 1..n is built from internal values v = symbol - 1.  At
level i the cells are partitioned by v mod 2**i; within each residue class,
the cells whose value gets bit i set form a binary table whose row and column
sums are all equal, and a fresh uniform draw of that table decides the bit.
After all levels every line carries each residue exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary_sampler import BinaryStrategy, sample_binary_table
from .diagnostics import SamplerDiagnostics
from .errors import DeadStateError

__all__ = [
    "LatinSquare",
    "RestartPolicy",
    "LevelClass",
    "LevelPlan",
    "level_class_targets",
    "build_level_plan",
    "sample_latin_square",
    "parity_levels",
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


@dataclass(frozen=True)
class RestartPolicy:
    """Escalation rule for cascade dead states.

    "retry_level" spends `budget` restarts inside the failing class table,
    then one full restart of the cascade before giving up; "restart_all"
    restarts the whole cascade up to `budget` times with no inner retries;
    "abort" fails on the first dead state.
    """

    scope: str = "retry_level"
    budget: int = 1000

    def __post_init__(self):
        if self.scope not in ("retry_level", "restart_all", "abort"):
            raise ValueError(f"unknown restart scope {self.scope!r}")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


@dataclass(frozen=True)
class LevelClass:
    """One residue class at one level: which cells may get the bit, and how
    many per line must."""

    residue: int
    target: int
    open_mask: np.ndarray


@dataclass(frozen=True)
class LevelPlan:
    level: int
    classes: tuple


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


def build_level_plan(n: int, i: int, t: np.ndarray) -> LevelPlan:
    """Partition the grid for level i given the values decided so far.

    `t` holds the bits below i of every cell's internal value; cells agreeing
    with residue b modulo 2**i form class b.  Classes whose target is zero
    keep bit i clear everywhere and need no sampling.
    """
    t = np.asarray(t, dtype=np.int64)
    period = 1 << i
    classes = []
    for b in range(period):
        classes.append(
            LevelClass(residue=b, target=level_class_targets(n, i, b), open_mask=(t % period == b))
        )
    return LevelPlan(level=i, classes=tuple(classes))


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
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    strategy = strategy if strategy is not None else BinaryStrategy()
    policy = policy if policy is not None else RestartPolicy()
    rng = rng if rng is not None else np.random.default_rng(seed)
    levels = (n - 1).bit_length()
    total = SamplerDiagnostics()
    total.levels = levels
    if policy.scope == "retry_level":
        inner_budget, outer_attempts = policy.budget, 2
    elif policy.scope == "restart_all":
        inner_budget, outer_attempts = 0, policy.budget + 1
    else:
        inner_budget, outer_attempts = 0, 1
    last_error = None
    for attempt in range(outer_attempts):
        t = np.zeros((n, n), dtype=np.int64)
        failed = False
        for i in range(levels):
            plan = build_level_plan(n, i, t)
            for cls in plan.classes:
                if cls.target == 0:
                    continue
                margins = [cls.target] * n
                try:
                    entries, d = sample_binary_table(
                        margins,
                        margins,
                        ~cls.open_mask,
                        strategy,
                        rng=rng,
                        max_restarts=inner_budget,
                    )
                except DeadStateError as e:
                    if e.diagnostics is not None:
                        total.absorb(e.diagnostics)
                    total.failure_site = (i, cls.residue)
                    last_error = e
                    failed = True
                    break
                total.absorb(d)
                t += entries << i
            if failed:
                break
        if not failed:
            values = tuple(tuple(int(x) + 1 for x in row) for row in t)
            square = LatinSquare(values=values)
            return square, total
        if attempt + 1 < outer_attempts:
            total.restarts += 1
    site = total.failure_site
    raise DeadStateError(
        f"cascade dead at level {site[0]}, residue {site[1]}", diagnostics=total
    ) from last_error


def parity_levels(square: LatinSquare) -> list:
    """Digit planes of the square: plane i holds bit i of (symbol - 1).

    Reassembling as sum(2**i * plane_i) + 1 reproduces the square; at least
    one plane is returned even at order 1.
    """
    a = square.to_array() - 1
    count = max(1, (square.n - 1).bit_length())
    return [((a >> i) & 1).astype(np.int64) for i in range(count)]
