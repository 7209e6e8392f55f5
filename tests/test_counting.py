import itertools

import numpy as np
import pytest

from bittables import counting
from bittables.counting import (
    CountOracle,
    CountQuery,
    _colmasks,
    count_binary_tables,
    count_integer_tables,
    enumerate_binary_tables,
    enumerate_integer_tables,
    iter_latin_squares,
    shared_oracle,
)
from bittables.errors import OracleLimitError
from bittables.latin import enumerate_latin_squares

import oracles


def _balanced_margins(m, n, top):
    """All (r, c) pairs with entries in 0..top and equal totals."""
    for r in itertools.product(range(top + 1), repeat=m):
        for c in itertools.product(range(top + 1), repeat=n):
            if sum(r) == sum(c):
                yield r, c


def test_integer_anchor_2x2():
    # the three tables: the two diagonal placements and the all-ones grid
    assert count_integer_tables([2, 2], [2, 2]) == 3


def test_integer_counts_match_bruteforce():
    for r, c in _balanced_margins(2, 3, 3):
        assert count_integer_tables(r, c) == oracles.count_integer(r, c)
    rng = np.random.default_rng(7)
    for r, c in _balanced_margins(3, 3, 3):
        if rng.random() < 0.85:  # thin the sweep, full version runs in acceptance
            continue
        zero = rng.random((3, 3)) < 0.2
        assert count_integer_tables(r, c) == oracles.count_integer(r, c)
        assert count_integer_tables(r, c, zero) == oracles.count_integer(r, c, zero)


def test_integer_counts_with_even_constraints():
    rng = np.random.default_rng(19)
    for _ in range(40):
        r = rng.integers(0, 4, size=2)
        total = r.sum()
        c = np.zeros(2, dtype=np.int64)
        for _ in range(int(total)):
            c[rng.integers(0, 2)] += 1
        even = rng.random((2, 2)) < 0.4
        zero = rng.random((2, 2)) < 0.2
        want = oracles.count_integer(r, c, zero, even)
        assert count_integer_tables(r, c, zero, even) == want


def test_unbalanced_or_negative_margins_count_zero():
    assert count_integer_tables([2], [1]) == 0
    assert count_integer_tables([-1, 1], [0]) == 0
    assert count_binary_tables([2], [1, 2]) == 0


def test_binary_counts_match_bruteforce():
    for r, c in _balanced_margins(3, 3, 2):
        assert count_binary_tables(r, c) == oracles.count_binary(r, c)
    zero = np.array([[True, False, False], [False, False, True], [False, False, False]])
    for r, c in _balanced_margins(3, 3, 2):
        assert count_binary_tables(r, c, zero) == oracles.count_binary(r, c, zero)


def test_binary_anchor_6x6():
    assert count_binary_tables([3] * 6, [3] * 6) == 297200


def test_binary_count_transpose_symmetric():
    rng = np.random.default_rng(40)
    for _ in range(25):
        m, n = rng.integers(1, 5, size=2)
        r = rng.integers(0, n + 1, size=m)
        total = r.sum()
        c = np.zeros(n, dtype=np.int64)
        for _ in range(int(total)):
            c[rng.integers(0, n)] += 1
        zero = rng.random((m, n)) < 0.25
        assert count_binary_tables(r, c, zero) == count_binary_tables(c, r, zero.T)


def test_forced_zero_anchor():
    z = np.array([[False, False], [False, True]])
    assert count_binary_tables([1, 1], [1, 1], z) == 1  # anti-diagonal forced


def test_enumeration_agrees_with_counts():
    got = list(enumerate_integer_tables([2, 2], [2, 2]))
    assert len(got) == 3 and len(set(got)) == 3
    for tab in got:
        assert all(sum(row) == 2 for row in tab)
    bin_got = list(enumerate_binary_tables([2, 2, 2], [2, 2, 2]))
    assert len(bin_got) == count_binary_tables([2, 2, 2], [2, 2, 2]) == 6


def test_latin_counts():
    assert len(enumerate_latin_squares(1)) == 1
    assert sum(1 for _ in iter_latin_squares(2)) == 2
    assert sum(1 for _ in iter_latin_squares(3)) == oracles.count_latin(3) == 12
    squares4 = list(iter_latin_squares(4))
    assert len(squares4) == oracles.count_latin(4) == 576
    assert len(set(squares4)) == 576
    first = squares4[0]
    assert all(sorted(row) == list(range(1, 5)) for row in first)


def test_latin_anchor_order_5():
    assert sum(1 for _ in iter_latin_squares(5)) == 161280


def test_oracle_limits():
    small = CountOracle(max_integer_dim=2, max_integer_margin=4, max_binary_dim=2, max_latin_order=2)
    with pytest.raises(OracleLimitError, match="^integer instance 3x3 exceeds limit 2$"):
        small.count_integer_tables([1, 1, 0], [1, 1, 0])
    with pytest.raises(OracleLimitError, match="^margin 5 exceeds integer counting limit 4$"):
        small.count_integer_tables([5, 0], [5, 0])
    with pytest.raises(OracleLimitError, match="^binary instance 3x3 exceeds limit 2$"):
        small.count_binary_tables([1, 1, 1], [1, 1, 1])
    # binary margins have no limit, and a negative residual never trips the integer one
    assert small.count_binary_tables([5, 0], [5, 0]) == 0
    assert small.count_integer_tables([-7, 3], [-2, -2]) == 0
    with pytest.raises(OracleLimitError):
        small.iter_latin_squares(3)
    assert small.count_integer_tables([2, 2], [2, 2]) == 3


def test_query_cache_stability():
    oracle = CountOracle()
    a = oracle.count_binary_tables([2, 1], [1, 1, 1])
    b = oracle.count_binary_tables([2, 1], [1, 1, 1])
    assert a == b == oracles.count_binary([2, 1], [1, 1, 1])
    assert shared_oracle() is shared_oracle()


def test_query_rejects_non_integer_margins():
    # a float margin is refused, not truncated to a different instance
    with pytest.raises(TypeError):
        count_integer_tables([1.5, 0.5], [1, 0])
    with pytest.raises(TypeError):
        CountQuery.build("binary", [1, 1], [1.0, 1])
    q = CountQuery.build("integer", np.array([2, 2]), [np.int32(2), np.int64(2)])
    assert q.r == q.c == (2, 2) and all(type(x) is int for x in q.r + q.c)
    assert count_integer_tables(np.array([2, 2]), np.array([2, 2])) == 3


def test_colmasks_match_cell_loop():
    # bit i of column j is row i, for any m: the oracle's limits can be
    # raised past 63 rows, so keys must not overflow a machine word
    rng = np.random.default_rng(61)
    for m in (1, 7, 8, 9, 70):
        n = int(rng.integers(1, 6))
        for density in (0.0, 0.3, 1.0):
            zero = rng.random((m, n)) < density
            even = rng.random((m, n)) < 0.5
            assert _colmasks(zero, m, n) == oracles.colmasks_loop(zero, m, n)
            r, c = [1] * m, [0] * n
            key = CountQuery("integer", tuple(r), tuple(c),
                             oracles.colmasks_loop(zero, m, n), oracles.colmasks_loop(even, m, n))
            assert CountQuery.build("integer", r, c, zero, even) == key
    assert _colmasks(None, 3, 2) == _colmasks(np.zeros((0, 2), dtype=bool), 0, 2) == (0, 0)
    assert _colmasks(np.ones((70, 1), dtype=bool), 70, 1) == ((1 << 70) - 1,)
    with pytest.raises(ValueError):
        _colmasks(np.zeros((2, 3), dtype=bool), 3, 2)


def _columns_expanded(monkeypatch, count):
    """Run `count` on a fresh oracle; return its result and its `_columns` calls."""
    calls = [0]
    columns = counting._columns

    def counted(*args):
        calls[0] += 1
        return columns(*args)

    monkeypatch.setattr(counting, "_columns", counted)
    result = count(CountOracle())
    monkeypatch.setattr(counting, "_columns", columns)
    return result, calls[0]


def test_spent_rows_keep_the_sorted_memo_keys(monkeypatch):
    # a row with residual 0 takes 0 in every column whatever its mask, so it
    # does not stop residuals being sorted into the memo key: a fixed-point
    # query whose spent row is fully masked expands as many columns as the
    # same query without that row, and fewer than under the rule that asked
    # every mask column to cover all rows or none
    zero = np.zeros((6, 6), dtype=bool)
    zero[0] = True
    r, c = [0, 3, 3, 3, 3, 3], [3, 3, 3, 2, 2, 2]
    spent = _columns_expanded(monkeypatch, lambda o: o.count_binary_tables(r, c, zero))
    dropped = _columns_expanded(monkeypatch, lambda o: o.count_binary_tables(r[1:], c))

    def all_or_none(q):
        full = (1 << len(q.r)) - 1
        out = [True] * (len(q.c) + 1)
        for j in range(len(q.c) - 1, -1, -1):
            out[j] = out[j + 1] and q.w[j] in (0, full) and q.o[j] in (0, full)
        return out

    monkeypatch.setattr(counting, "_suffix_symmetric", all_or_none)
    before = _columns_expanded(monkeypatch, lambda o: o.count_binary_tables(r, c, zero))
    assert spent[0] == dropped[0] == before[0] > 0
    assert spent[1] == dropped[1] < before[1]


def test_counts_with_spent_rows_match_bruteforce():
    # random masked integer and 0/1 queries, many with rows of residual 0
    # under partial or full masks, against the row-by-row oracles
    rng = np.random.default_rng(83)
    spent = 0
    for _ in range(300):
        binary = bool(rng.integers(0, 2))
        m, n = (int(x) for x in rng.integers(1, 5 if binary else 4, size=2))
        top = 1 if binary else 3
        cells = rng.integers(0, top + 1, size=(m, n)) * (rng.random((m, n)) < 0.6)
        cells[rng.random(m) < 0.35] = 0
        r, c = cells.sum(axis=1), cells.sum(axis=0)
        zero = rng.random((m, n)) < 0.3
        zero[r == 0] |= rng.random((int(np.sum(r == 0)), n)) < 0.7
        if rng.random() < 0.2:  # an unbalanced or unreachable query counts 0
            c[rng.integers(0, n)] += 1
        spent += int(np.sum(r == 0))
        if binary:
            assert count_binary_tables(r, c, zero) == oracles.count_binary(r, c, zero)
        else:
            even = rng.random((m, n)) < 0.3
            want = oracles.count_integer(r, c, zero, even)
            assert count_integer_tables(r, c, zero, even) == want
    assert spent > 150
