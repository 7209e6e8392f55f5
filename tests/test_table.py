import subprocess
import sys

import numpy as np
import pytest

from bittables.errors import ContradictionError
from bittables.table import (
    MarginSpec,
    MaskedTable,
    binary_feasible,
    deterministic_fill,
    entries_from_csv,
    fill_in_place,
    entries_to_csv,
    validate_table,
)


def _mask(m, n, cells):
    z = np.zeros((m, n), dtype=bool)
    for i, j in cells:
        z[i, j] = True
    return z


def test_margin_spec_validation():
    spec = MarginSpec((2, 3), (1, 4))
    assert spec.r == (2, 3) and spec.c == (1, 4)
    with pytest.raises(ValueError):
        MarginSpec((2,), (3,))
    with pytest.raises(ValueError):
        MarginSpec((-1, 4), (3,))
    # a float margin is refused, not truncated; numpy integers normalise to int
    with pytest.raises(TypeError):
        MarginSpec((2.5, 1.5), (2, 1))
    with pytest.raises(TypeError):
        MaskedTable.from_margins([1.7, 1.2], [1, 1])
    spec = MarginSpec(tuple(np.array([2, 3])), (np.int32(1), np.int64(4)))
    assert spec.r == (2, 3) and spec.c == (1, 4)
    assert all(type(x) is int for x in spec.r + spec.c)


def test_finalize_updates_residuals():
    t = MaskedTable.from_margins([3, 2], [4, 1])
    t.finalize(0, 0, 3)
    assert list(t.r_res) == [0, 2] and list(t.c_res) == [1, 1]
    assert t.open_r[0] == 1 and t.open_c[0] == 1
    with pytest.raises(ContradictionError):
        t.finalize(0, 0, 1)  # already finalized
    with pytest.raises(ContradictionError):
        t.finalize(1, 0, 2)  # exceeds column residual
    with pytest.raises(ContradictionError):
        t.finalize(1, 1, -1)


def test_fill_reduces_worked_instance_to_open_2x2():
    # margins (10, 56, 13) x (20, 14, 18, 27) with five dead cells collapse
    # to a single open 2x2 block with row residuals (3, 38), cols (14, 27)
    zero = _mask(3, 4, [(0, 2), (1, 0), (2, 1), (2, 2), (2, 3)])
    t = MaskedTable.from_margins([10, 56, 13], [20, 14, 18, 27], zero)
    fr = deterministic_fill([], t, "integer")
    got = {(i, j): v for i, j, v in fr.forced}
    assert got[(2, 0)] == 13 and got[(0, 0)] == 7 and got[(1, 2)] == 18
    out = fr.table
    open_cells = np.argwhere(~out.mask)
    assert sorted(map(tuple, open_cells)) == [(0, 1), (0, 3), (1, 1), (1, 3)]
    assert list(out.r_res) == [3, 38, 0]
    assert list(out.c_res) == [0, 14, 0, 27]


def test_fill_replay_reproduces_state():
    zero = _mask(3, 4, [(0, 2), (1, 0), (2, 1), (2, 2), (2, 3)])
    t = MaskedTable.from_margins([10, 56, 13], [20, 14, 18, 27], zero)
    fr = deterministic_fill([], t, "integer")
    replay = t.copy()
    for i, j, v in fr.forced:
        replay.finalize(i, j, v)
    assert np.array_equal(replay.entries, fr.table.entries)
    assert np.array_equal(replay.mask, fr.table.mask)


def test_fill_seed_order_irrelevant():
    t = MaskedTable.from_margins([2, 2], [2, 2])
    a = deterministic_fill([(0, 0, 1), (1, 1, 1)], t, "integer")
    b = deterministic_fill([(1, 1, 1), (0, 0, 1)], t, "integer")
    assert np.array_equal(a.table.entries, b.table.entries)
    assert a.table.is_complete()  # single-open-cell rule finishes the table


def test_binary_full_rule_and_contradictions():
    # residual equals open count: whole line forced to one
    t = MaskedTable.from_margins([2, 1, 1], [2, 1, 1])
    fr = deterministic_fill([(0, 1, 1)], t, "binary")
    assert fr.table.entries[0, 1] == 1
    # row 0 now needs 1 one in cols {0, 2}; no full line fires there yet
    assert not fr.table.is_complete()
    with pytest.raises(ContradictionError):
        deterministic_fill([(0, 0, 2)], t, "binary")
    over = MaskedTable.from_margins([2, 0], [1, 1], _mask(2, 2, [(0, 1)]))
    with pytest.raises(ContradictionError):
        deterministic_fill([], over, "binary")  # row 0 needs 2 ones in 1 cell


def _random_fixed_points(seed, mode, count):
    """Fixed-point states of random feasible instances, some cells decided."""
    rng = np.random.default_rng(seed)
    top = 2 if mode == "binary" else 5
    out = []
    while len(out) < count:
        m, n = rng.integers(2, 6, size=2)
        r = rng.integers(0, top + 1, size=m)
        c = np.zeros(n, dtype=np.int64)
        for _ in range(int(r.sum())):
            c[rng.integers(0, n)] += 1
        if mode == "binary" and not binary_feasible(r, c):
            continue
        try:
            t = deterministic_fill([], MaskedTable.from_margins(r, c), mode).table
            for _ in range(rng.integers(0, 3)):
                opens = np.argwhere(~t.mask)
                if len(opens) == 0:
                    break
                i, j = opens[rng.integers(0, len(opens))]
                v = int(rng.integers(0, 1 + min(t.r_res[i], t.c_res[j])))
                t = deterministic_fill([(i, j, v)], t, mode).table
        except ContradictionError:
            continue
        out.append(t)
    return rng, out


def _state(t):
    return [a.copy() for a in (t.entries, t.mask, t.r_res, t.c_res, t.open_r, t.open_c)]


def _assert_state(t, want):
    for a, b in zip(_state(t), want):
        assert np.array_equal(a, b)


def test_fixed_point_shortcut_is_equivalent():
    # on a fixed point, propagating from the seed alone (in place) commits
    # the forced list a full rescan of a copy finds, in the same order
    for mode in ("binary", "integer"):
        rng, states = _random_fixed_points(2024, mode, 60)
        for base in states:
            opens = np.argwhere(~base.mask)
            if len(opens) == 0:
                continue
            i, j = opens[rng.integers(0, len(opens))]
            for v in range(3 if mode == "integer" else 2):
                t = base.copy()
                try:
                    slow = deterministic_fill([(i, j, v)], base, mode)
                except ContradictionError as e:
                    with pytest.raises(ContradictionError) as fast_err:
                        fill_in_place([(i, j, v)], t, mode)
                    assert str(fast_err.value) == str(e)
                    continue
                assert fill_in_place([(i, j, v)], t, mode) == slow.forced
                _assert_state(t, _state(slow.table))


def test_fill_from_every_line_equals_deterministic_fill():
    # started from every line, the in-place fill needs no fixed point: it
    # commits deterministic_fill's forced list and leaves its state, or
    # raises its error with `t` untouched
    rng = np.random.default_rng(31)
    fills = raised = 0
    for _ in range(300):
        mode = ("binary", "integer")[int(rng.integers(0, 2))]
        m, n = rng.integers(1, 6, size=2)
        r = rng.integers(0, 3 if mode == "binary" else 6, size=m)
        c = np.bincount(rng.integers(0, n, size=int(r.sum())), minlength=n)
        t = MaskedTable.from_margins(r, c, rng.random((m, n)) < 0.3)
        opens = np.argwhere(~t.mask)
        seeds = []
        if len(opens) and rng.random() < 0.5:
            i, j = opens[rng.integers(0, len(opens))]
            seeds = [(i, j, int(rng.integers(0, 1 + min(t.r_res[i], t.c_res[j], 1))))]
        before = _state(t)
        try:
            slow = deterministic_fill(seeds, t, mode)
        except ContradictionError as e:
            with pytest.raises(ContradictionError) as fast_err:
                fill_in_place(seeds, t, mode, range(m + n))
            assert str(fast_err.value) == str(e)
            _assert_state(t, before)
            raised += 1
            continue
        assert fill_in_place(seeds, t, mode, range(m + n)) == slow.forced
        _assert_state(t, _state(slow.table))
        fills += len(slow.forced) > len(seeds)
    assert fills > 50 and raised > 20


def test_retract_undoes_fill_in_place():
    for mode in ("binary", "integer"):
        rng, states = _random_fixed_points(7, mode, 60)
        for t in states:
            before = _state(t)
            for i, j in np.argwhere(~t.mask):
                for v in range(3 if mode == "integer" else 2):
                    try:
                        forced = fill_in_place([(i, j, v)], t, mode)
                    except ContradictionError:
                        _assert_state(t, before)
                        continue
                    assert len(forced) >= 1
                    t.retract(forced)
                    _assert_state(t, before)


def test_contradiction_midway_leaves_table_unchanged():
    # the seed fits its residuals, so it is committed before propagation
    # finds the contradiction; the partial fill must be undone
    midway = 0
    for mode in ("binary", "integer"):
        _, states = _random_fixed_points(99, mode, 80)
        for t in states:
            before = _state(t)
            for i, j in np.argwhere(~t.mask):
                for v in range(1 + int(min(t.r_res[i], t.c_res[j]))):
                    try:
                        t.retract(fill_in_place([(i, j, v)], t, mode))
                    except ContradictionError:
                        midway += 1
                        _assert_state(t, before)
    assert midway > 10


def test_open_counts_track_mask():
    def check(t):
        assert np.array_equal(t.open_r, (~t.mask).sum(axis=1))
        assert np.array_equal(t.open_c, (~t.mask).sum(axis=0))

    def fill_and_retract(t, rng):
        # nested in-place fills, then their retractions, last one first
        fills = []
        for _ in range(3):
            opens = np.argwhere(~t.mask)
            if len(opens) == 0:
                break
            i, j = opens[rng.integers(0, len(opens))]
            v = int(rng.integers(0, 1 + min(t.r_res[i], t.c_res[j])))
            try:
                fills.append(fill_in_place([(i, j, v)], t, "integer"))
            except ContradictionError:
                pass
            check(t)
        while fills:
            t.retract(fills.pop())
            check(t)

    rng = np.random.default_rng(5)
    runs = np.random.default_rng(6)
    for _ in range(40):
        m, n = rng.integers(1, 6, size=2)
        r = rng.integers(0, 6, size=m)
        c = np.zeros(n, dtype=np.int64)
        for _ in range(int(r.sum())):
            c[rng.integers(0, n)] += 1
        t = MaskedTable.from_margins(r, c, rng.random((m, n)) < 0.2)
        check(t)
        fill_and_retract(t.copy(), runs)
        for _ in range(4):
            opens = np.argwhere(~t.mask)
            if len(opens) == 0:
                break
            i, j = opens[rng.integers(0, len(opens))]
            v = int(rng.integers(0, 1 + min(t.r_res[i], t.c_res[j])))
            try:
                if rng.random() < 0.5:
                    t.finalize(i, j, v)
                else:
                    t = deterministic_fill([(i, j, v)], t, "integer").table
            except ContradictionError:
                break
            check(t)
            check(t.copy())


def test_copy_owns_its_rows():
    # each row list is copied: writing one table's cells or closed flags,
    # directly or through finalize, leaves the other as it was
    t = MaskedTable.from_margins([2, 1], [1, 2])
    out = t.copy()
    out.finalize(0, 1, 1)
    out.cells[1][0] = 7
    out.closed[1][1] = True
    assert t.cells == [[0, 0], [0, 0]] and t.closed == [[False, False], [False, False]]
    assert (t.r_res, t.c_res, t.open_r, t.open_c) == ([2, 1], [1, 2], [2, 2], [2, 2])
    t.finalize(1, 0, 1)
    assert out.cells == [[0, 1], [7, 0]] and out.closed == [[False, True], [False, True]]
    assert (out.r_res, out.c_res, out.open_r, out.open_c) == ([1, 1], [1, 1], [1, 2], [2, 1])


def test_entries_and_mask_are_fresh_arrays():
    # the arrays equal the list state, and writing them does not reach the table
    t = MaskedTable.from_margins([2, 1], [1, 2], _mask(2, 2, [(1, 0)]))
    t.finalize(0, 1, 2)
    entries, mask = t.entries, t.mask
    assert entries.dtype == np.int64 and mask.dtype == bool
    assert entries.tolist() == t.cells == [[0, 2], [0, 0]]
    assert mask.tolist() == t.closed == [[False, True], [True, False]]
    entries[0, 0] = 5
    mask[0, 0] = True
    assert t.cells[0][0] == 0 and not t.closed[0][0]
    assert t.entries[0, 0] == 0 and not t.mask[0, 0]
    assert t.entries is not t.entries and t.mask is not t.mask
    # a table without rows keeps its shape
    empty = MaskedTable.from_margins([], [0, 0])
    assert empty.entries.shape == (0, 2) and empty.mask.shape == (0, 2)


def test_validate_table_modes():
    a = [[1, 2], [0, 1]]
    assert validate_table(a, [3, 1], [1, 3])
    assert not validate_table(a, [3, 1], [1, 3], mode="binary")  # a 2 present
    assert not validate_table(a, [3, 1], [3, 1])
    assert not validate_table(a, [3, 1], [1, 3], forced_zero=_mask(2, 2, [(0, 1)]))
    assert validate_table([[0, 1], [1, 0]], [1, 1], [1, 1], mode="binary")
    assert not validate_table([[1]], [1, 1], [1])  # shape mismatch


def test_binary_feasibility_flow():
    assert binary_feasible([2, 2], [2, 2])
    assert not binary_feasible([3, 1], [2, 2])  # row 0 exceeds open cells
    assert not binary_feasible([1, 1], [3])  # totals differ
    assert binary_feasible([1, 1], [1, 1], _mask(2, 2, [(0, 0), (1, 1)]))
    assert not binary_feasible([1, 1], [2, 0], _mask(2, 2, [(0, 0)]))
    assert binary_feasible([0, 0], [0, 0])
    # mask leaves enough cells but in the wrong pattern
    z = _mask(2, 2, [(0, 0), (1, 0)])
    assert not binary_feasible([1, 1], [1, 1], z)


def test_csv_round_trip():
    a = np.array([[1, 0, 5], [2, 3, 0]])
    s = entries_to_csv(a)
    assert s == "1,0,5\n2,3,0\n"
    assert np.array_equal(entries_from_csv(s), a)


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bittables; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
