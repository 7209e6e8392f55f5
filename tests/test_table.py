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
    entries_to_csv,
    table_from_json,
    table_to_json,
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


def test_finalize_updates_residuals():
    t = MaskedTable.from_margins([3, 2], [4, 1])
    t.finalize(0, 0, 3)
    assert t.r_res.tolist() == [0, 2] and t.c_res.tolist() == [1, 1]
    assert t.open_count_row(0) == 1 and t.open_count_col(0) == 1
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
    assert out.r_res.tolist() == [3, 38, 0]
    assert out.c_res.tolist() == [0, 14, 0, 27]


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


def test_fixed_point_shortcut_is_equivalent():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m, n = rng.integers(2, 5, size=2)
        r = rng.integers(0, 3, size=m)
        total = r.sum()
        c = np.zeros(n, dtype=np.int64)
        for _ in range(int(total)):
            c[rng.integers(0, n)] += 1
        if not binary_feasible(r, c):
            continue
        base = deterministic_fill([], MaskedTable.from_margins(r, c), "binary").table
        opens = np.argwhere(~base.mask)
        if len(opens) == 0:
            continue
        i, j = opens[rng.integers(0, len(opens))]
        for v in (0, 1):
            try:
                slow = deterministic_fill([(i, j, v)], base, "binary")
            except ContradictionError:
                with pytest.raises(ContradictionError):
                    deterministic_fill([(i, j, v)], base, "binary", assume_fixed_point=True)
                continue
            fast = deterministic_fill([(i, j, v)], base, "binary", assume_fixed_point=True)
            assert np.array_equal(slow.table.entries, fast.table.entries)
            assert np.array_equal(slow.table.mask, fast.table.mask)


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


def test_json_round_trip():
    t = MaskedTable.from_margins([2, 1], [1, 2], _mask(2, 2, [(1, 0)]))
    t.finalize(0, 0, 1)
    s = table_to_json(t)
    assert table_to_json(t) == s  # deterministic bytes
    entries, mask = table_from_json(s)
    assert np.array_equal(entries, t.entries)
    assert np.array_equal(mask, t.mask)
    with pytest.raises(ValueError):
        table_from_json('{"rows":2,"cols":2,"entries":[[1]],"mask":[[0]]}')


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
