"""Each output check must reject a corrupted object, or it proves nothing.

    python3 perfbench/selfcheck.py

Every benchmark run repeats these checks after its timed phase and counts
a checker that accepts a corruption as an incorrect run.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import checks
from workloads import COUNTS, INT4, INT5, _table_op, count_ops, latin_op, partition_op


def _cases(bt):
    """(name, accepted?) pairs: the valid object first, then its corruptions.

    Tables, squares, partitions and counts go through the `check` of the
    same Op builders the workloads use, as (object, diagnostics) pairs
    where the sampler returns one.
    """

    def table(entries, r, c, zero=None, binary=False):
        return _table_op(bt, "selfcheck", r, c, zero, binary).check((np.asarray(entries), None))

    r, c = [3, 2], [1, 2, 2]
    valid = np.array([[1, 1, 1], [0, 1, 1]])
    zero = np.zeros((2, 3), dtype=bool)
    zero[1, 0] = True
    moved = valid.copy()
    moved[0, 0] -= 1
    moved[0, 1] += 1
    swapped = valid.copy()
    swapped[0, 0], swapped[1, 0] = 0, 1
    yield "table valid", table(valid, r, c, zero, binary=True)
    yield "table unit moved along a row", not table(moved, r, c)
    yield "table forced zero filled", not table(swapped, [2, 3], c, zero)
    yield "table entry 2 in a 0/1 table", not table(valid * 2, [6, 4], [2, 4, 4], binary=True)
    yield "table negative entry", not table([[2, -1], [0, 1]], [1, 1], [2, 0])

    def latin(values, n):
        return latin_op(bt, n, None).check((SimpleNamespace(values=values), None))

    n = 5
    square = [[(i + j) % n + 1 for j in range(n)] for i in range(n)]
    yield "latin valid", latin(square, n)
    bad = [row[:] for row in square]
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]  # rows stay permutations, columns break
    yield "latin two cells swapped", not latin(bad, n)
    yield "latin symbol out of range", not latin([[x - 1 for x in row] for row in square], n)

    # Corrupted partitions are plain namespaces: bt.Partition refuses them.
    def partition(out, n, distinct):
        return partition_op(bt, n, distinct, None).check(out)

    yield "partition valid", partition(bt.Partition(n=9, pairs=((1, 1), (3, 1), (5, 1))), 9, True)
    yield "partition of another n", not partition(
        bt.Partition(n=10, pairs=((1, 1), (4, 1), (5, 1))), 9, True)
    yield "partition wrong sum", not partition(
        SimpleNamespace(n=9, pairs=((2, 1), (3, 1), (5, 1))), 9, False)
    yield "partition repeated part", not partition(
        SimpleNamespace(n=9, pairs=((1, 1), (4, 2))), 9, True)
    yield "partition zero part", not partition(SimpleNamespace(n=9, pairs=((0, 1), (9, 1))), 9, False)

    for op in count_ops(bt, {}):
        yield f"{op.label} matches", op.check(COUNTS[op.label])
        yield f"{op.label} off by one", not op.check(COUNTS[op.label] + 1)
    # The integer constants against the benchmark's own recursion.
    yield "reference count integer 4x4 margins 8", \
        checks.count_tables(*INT4) == COUNTS["count integer 4x4 margins 8"]
    yield "reference count integer 5x5 margins 6", \
        checks.count_tables(*INT5) == COUNTS["count integer 5x5 margins 6"]
    yield "reference count binary 6x6 margins 3", \
        checks.count_tables([3] * 6, [3] * 6, binary=True) == COUNTS["count binary 6x6 margins 3"]

    keys = checks.enumerate_tables([1, 1], [1, 1])
    yield "chi-square uniform draws", checks.chi_square_uniform(keys * 50, keys)
    yield "chi-square skewed draws", not checks.chi_square_uniform(keys[:1] * 70 + keys[1:] * 30,
                                                                   keys)
    yield "chi-square draw outside support", not checks.chi_square_uniform(
        keys * 50 + [((2, 0), (0, 0))], keys)


def run(bt) -> list:
    """(name, ok) for every case."""
    return [(f"selfcheck {name}", bool(ok)) for name, ok in _cases(bt)]


if __name__ == "__main__":
    from run import _load_package

    results = run(_load_package())
    for name, ok in results:
        print(f"{'pass' if ok else 'FAIL'} {name}")
    sys.exit(0 if all(ok for _, ok in results) else 1)
