import ast
import importlib
import json
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bittables
from bittables import integer_sampler
from bittables.binary_sampler import sample_binary_table
from bittables.cli import main
from bittables.counting import count_integer_tables
from bittables.errors import (
    ConditioningError,
    ContradictionError,
    DeadStateError,
    InfeasibleError,
    OracleLimitError,
)
from bittables.integer_sampler import (
    BitSamplerStrategy,
    approx_bit_weight,
    sample_contingency_table,
)
from bittables import pmf
from bittables.pmf import column_parameters, conditioned_cell_pmf
from bittables.seeding import batch_rng
from bittables.stats import chi_square_uniformity
from bittables.table import MaskedTable, deterministic_fill, validate_table

import oracles


def _square22():
    return MaskedTable.from_margins([2, 2], [2, 2])


def test_first_bit_weight_hand_value():
    # margins (2,2)x(2,2), q = 1/2 per column.  Column factor at cell (0,0):
    # P(one even + one plain open cell sum to 2) = 3/4*1/8 + 3/16*1/2 = 3/16.
    # Row factor: even cell given column sum 2 is uniform on {0,2}, plain
    # cell given sum 2 uniform on {0,1,2}; P(row sum 2) = 1/3.  F = 1/16.
    t = _square22()
    scheme = column_parameters(t.c_res, [0, 0], 2)
    assert abs(scheme.q[0] - 0.5) < 1e-15
    for k in (0, 1):
        assert abs(approx_bit_weight(0, 0, k, t, scheme) - 0.0625) < 1e-12
    # seed factors 1/(1+q) and q/(1+q) then give P(bit0=0) = 2/3, the true
    # conditional: 2 of the 3 tables have an even corner
    even = np.zeros((2, 2), dtype=bool)
    even[0, 0] = True
    a0 = count_integer_tables([2, 2], [2, 2], None, even)  # corner bit 0
    a1 = count_integer_tables([1, 2], [1, 2], None, even)  # corner bit 1
    assert abs(a0 / (a0 + a1) - 2 / 3) < 1e-12


def test_bit_weight_unreachable_residuals():
    t = _square22()
    scheme = column_parameters(t.c_res, [0, 0], 2)
    t2 = t.copy()
    t2.r_res[0] = 0
    assert approx_bit_weight(0, 0, 1, t2, scheme) == 0.0
    t3 = t.copy()
    t3.c_res[0] = 0
    assert approx_bit_weight(0, 0, 1, t3, scheme) == 0.0


def test_exact_strategy_uniform_small():
    # 30 samples per table over the 3-table instance, then a sharper check
    # with chi-square on a fixed seed
    tables = list(oracles.iter_integer_tables([2, 2], [2, 2]))
    strategy = BitSamplerStrategy(kind="exact")
    counts = Counter()
    for s in range(300):
        e, _ = sample_contingency_table([2, 2], [2, 2], strategy=strategy, rng=batch_rng(91, s))
        counts[tuple(map(tuple, e.tolist()))] += 1
    assert set(counts) == set(tables)
    rep = chi_square_uniformity([counts[t] for t in tables], len(tables))
    assert rep.passed, rep.as_dict()


def test_exact_strategy_uniform_with_mask():
    zero = np.array([[False, True, False], [False, False, False]])
    tables = list(oracles.iter_integer_tables([2, 3], [1, 2, 2], zero))
    assert len(tables) > 1
    strategy = BitSamplerStrategy(kind="exact")
    counts = Counter()
    for s in range(60 * len(tables)):
        e, _ = sample_contingency_table(
            [2, 3], [1, 2, 2], zero, strategy=strategy, rng=batch_rng(17, s)
        )
        counts[tuple(map(tuple, e.tolist()))] += 1
    assert set(counts) == set(tables)
    rep = chi_square_uniformity([counts[t] for t in tables], len(tables))
    assert rep.passed, rep.as_dict()


def test_approx_samples_are_valid_tables():
    r, c = [10, 56, 13], [20, 14, 18, 27]
    zero = np.zeros((3, 4), dtype=bool)
    for i, j in [(0, 2), (1, 0), (2, 1), (2, 2), (2, 3)]:
        zero[i, j] = True
    for s in range(25):
        e, diag = sample_contingency_table(r, c, zero, rng=batch_rng(5, s))
        assert validate_table(e, r, c, zero)
        assert diag.levels == 6  # top margin 56 spans six bit planes
    e2, _ = sample_contingency_table(r, c, zero, seed=123)
    assert validate_table(e2, r, c, zero)


def test_seeded_runs_reproduce():
    r, c = [7, 5], [4, 8]
    a, _ = sample_contingency_table(r, c, seed=42)
    b, _ = sample_contingency_table(r, c, seed=42)
    assert np.array_equal(a, b)
    seen = {tuple(map(tuple, sample_contingency_table(r, c, seed=s)[0])) for s in range(40)}
    assert len(seen) > 1


def test_row_scan_transposes_column_scan():
    r, c = [6, 9], [3, 5, 7]
    for s in range(10):
        a, _ = sample_contingency_table(r, c, rng=batch_rng(33, s), scan="row")
        b, _ = sample_contingency_table(c, r, rng=batch_rng(33, s), scan="column")
        assert np.array_equal(a, b.T)
    with pytest.raises(ValueError):
        sample_contingency_table(r, c, scan="diagonal")


def test_bit_levels_reassemble():
    r, c = [11, 6], [9, 8]
    e, diag = sample_contingency_table(r, c, seed=8, retain_bit_levels=True)
    assert diag.bit_levels is not None and len(diag.bit_levels) == diag.levels
    acc = np.zeros_like(e)
    for b, plane in enumerate(diag.bit_levels):
        assert set(np.unique(plane)) <= {0, 1}
        acc += plane << b
    assert np.array_equal(acc, e)


def test_infeasible_instances_rejected():
    with pytest.raises(ValueError):
        sample_contingency_table([3], [2], seed=0)  # unbalanced totals
    zero = np.array([[True], [False]])
    with pytest.raises(InfeasibleError):
        sample_contingency_table([2, 0], [2], zero, seed=0)
    with pytest.raises(InfeasibleError):
        sample_contingency_table(
            [1, 1], [1, 1], strategy=BitSamplerStrategy(kind="exact"),
            forced_zero=np.ones((2, 2), dtype=bool), seed=0,
        )
    # a float margin is refused, not truncated to a different instance
    for kind in ("approx", "exact"):
        with pytest.raises(TypeError):
            sample_contingency_table([2.5, 1.5], [2, 1], strategy=BitSamplerStrategy(kind=kind), seed=1)
    with pytest.raises(TypeError):
        sample_binary_table([1.7, 1.2], [1, 1], seed=1)
    e, _ = sample_contingency_table(np.array([2, 1]), np.array([2, 1]), seed=1)
    assert e.sum(axis=1).tolist() == [2, 1]


def test_exact_oracle_limit_errors():
    # the exact branch's first count checks the instance against the oracle limits
    exact = BitSamplerStrategy(kind="exact")
    with pytest.raises(OracleLimitError, match=r"^integer instance 7x7 exceeds limit 6$"):
        sample_contingency_table([1] * 7, [1] * 7, strategy=exact, seed=0)
    with pytest.raises(OracleLimitError, match=r"^margin 13 exceeds integer counting limit 12$"):
        sample_contingency_table([13, 1], [7, 7], strategy=exact, seed=0)


def test_fully_masked_zero_instance():
    e, diag = sample_contingency_table([0, 0], [0, 0], seed=1)
    assert np.array_equal(e, np.zeros((2, 2), dtype=np.int64))


def test_strategy_validation():
    with pytest.raises(ValueError):
        BitSamplerStrategy(kind="magic")


def _zero_mask(m, n, cells):
    if not cells:
        return None
    zero = np.zeros((m, n), dtype=bool)
    for i, j in cells:
        zero[i, j] = True
    return zero


def test_approx_draws_match_golden():
    """Fixed-seed approx draws recorded before the line laws were memoised
    and the cell law vectorised; both must reproduce them exactly."""
    golden = json.loads((Path(__file__).parent / "data" / "integer_golden.json").read_text())
    for case in golden:
        kw = {k: case[k] for k in ("scan", "retain_bit_levels") if k in case}
        zero = _zero_mask(len(case["rows"]), len(case["cols"]), case["zero"])
        e, diag = sample_contingency_table(
            case["rows"], case["cols"], zero, rng=batch_rng(*case["seed"]), **kw
        )
        assert e.tolist() == case["entries"], (case["name"], case["seed"])
        assert diag.as_dict() == case["diagnostics"], (case["name"], case["seed"])


def _random_masked_draws(seed, count):
    """`count` approx draws of random masked tables, scans alternating, up to 5 restarts each."""
    rng = np.random.default_rng(seed)
    for d in range(count):
        m, n = (int(x) for x in rng.integers(2, 6, size=2))
        e = rng.integers(0, int(rng.choice([3, 9, 25])) + 1, size=(m, n))
        zero = rng.random((m, n)) < 0.3
        e[zero] = 0
        try:
            sample_contingency_table(e.sum(1), e.sum(0), zero, rng=batch_rng(seed, d),
                                     scan=("column", "row")[d % 2], max_restarts=5)
        except DeadStateError:
            pass


def _uncancelled_weights(t, i, j, q):
    """Both approx weights of open cell (i, j) in the uncancelled form, with each
    candidate's pinned cells and whether it closed (i, j).  Each candidate is
    applied in place, weighed from its pinned state and retracted; one that
    strands a line weighs 0."""
    want, trials = [0.0, 0.0], []
    for k in (0, 1):
        try:
            pinned = integer_sampler._apply_bit(t, i, j, k)
        except ContradictionError:
            continue
        prod = (q[j] if k else 1.0) / (1.0 + q[j])
        for s, l, _ in pinned:
            prod *= (1.0 - q[l] * q[l]) if (l, s) <= (j, i) else (1.0 - q[l])
        want[k] = prod * oracles.approx_bit_weight_conditioned(i, j, 0, t, q)
        trials.append((pinned, t.closed[i][j]))
        integer_sampler._retract_bit(t, i, j, k, pinned)
    return want, trials


def _assert_close(got, want):
    """Equal to 1e-12 relative, with the same zeros."""
    for w, ref in zip(got, want):
        assert (w == 0.0) == (ref == 0.0), (w, ref)
        assert abs(w - ref) <= 1e-12 * abs(ref), (w, ref)


def test_weights_agree_with_the_uncancelled_form(monkeypatch):
    # each approx decision's two weights match those of the uncancelled
    # form, which builds the column law and the scored cell's conditioned
    # law, to 1e-12 relative and with the same zeros.  Random masked draws
    # under both scans reach every level state a scan position can hold; a
    # candidate that pins cells, the scored cell among them, is weighed from
    # the pinned state.
    decide = integer_sampler._decide
    choose = integer_sampler.choose_bit
    got = []

    def record(w0, w1, *args):
        got[:] = [w0, w1]
        return choose(w0, w1, *args)

    seen = Counter()

    def checked(t, i, j, level, strategy, laws, oracle, rng_, diag, transposed):
        want, trials = _uncancelled_weights(t, i, j, laws.q)
        for pinned, closed in trials:
            seen["pinned"] += bool(pinned)
            seen["closed"] += closed
        got.clear()
        try:
            return decide(t, i, j, level, strategy, laws, oracle, rng_, diag, transposed)
        finally:
            _assert_close(got, want)
            seen["row" if transposed else "column"] += 1
            seen["weights"] += len(got)
            seen["zeros"] += want.count(0.0)

    monkeypatch.setattr(integer_sampler, "choose_bit", record)
    monkeypatch.setattr(integer_sampler, "_decide", checked)
    _random_masked_draws(23, 40)
    assert seen["column"] > 200 and seen["row"] > 200
    assert seen["pinned"] > 50 and seen["closed"] == seen["pinned"] and seen["zeros"] > 20


def _fresh_row_law(t, i, j, q):
    """Law of row i's open cells other than (i, j), convolved left to right afresh."""
    law = np.ones(1)
    for l in t.open_in_row(i):
        if l == j:
            continue
        even, rest = l < j, t.open_c[l] - 1  # scanned columns hold their bit
        try:
            cell = conditioned_cell_pmf(even, q[l], rest if even else 0, 0 if even else rest,
                                        t.c_res[l])
        except ConditioningError:
            return np.zeros(1)
        law = np.convolve(law, cell)[: t.r_res[i] + 1]
    return law


def test_cached_row_laws_match_a_fresh_convolution(monkeypatch):
    # before every approx decision the level's cached row law (even prefix
    # times plain suffix) equals a fresh left-to-right convolution of row i's
    # other open cells, to 1e-12 relative with the same zeros.  Masks and
    # pinned cells close cells inside rows; committed bits that spend a row
    # mid-level must drop every row's laws.
    decide = integer_sampler._decide
    drop = integer_sampler._LevelLaws.drop
    seen = Counter()

    def counted_drop(self):
        seen["drops"] += hasattr(self, "prefix")  # not the first, from __init__
        drop(self)

    def checked(t, i, j, level, strategy, laws, *rest):
        size = t.r_res[i] + 1
        got, want = (np.pad(a[:size], (0, size - len(a[:size])))
                     for a in (laws.others(i, j), _fresh_row_law(t, i, j, laws.q)))
        _assert_close(got, want)
        seen["laws"] += 1
        seen["closed"] += any(t.closed[i][:j]) or any(t.closed[i][j + 1:])
        seen["zeros"] += int(np.count_nonzero(want == 0.0))
        return decide(t, i, j, level, strategy, laws, *rest)

    monkeypatch.setattr(integer_sampler._LevelLaws, "drop", counted_drop)
    monkeypatch.setattr(integer_sampler, "_decide", checked)
    _random_masked_draws(29, 60)
    for s in range(3):
        sample_contingency_table([7, 2, 9, 4, 3], [5, 6, 3, 8, 3], rng=batch_rng(50, s),
                                 scan=("column", "row")[s % 2])
    assert seen["laws"] > 1500 and seen["closed"] > 1000 and seen["zeros"] > 2000
    assert seen["drops"] > 60


def _spy_level_laws(monkeypatch):
    """Record, per `_LevelLaws` level, its columns' level-start residuals, its
    drops, its rows' suffix builds and its column-law builds, over draws of
    random masked tables, a skewed instance (one column a hundred times the
    others) and one whose committed bits spend rows mid-level.  Every law a
    level returns must be no longer than its column's level-start residual + 1."""
    L = integer_sampler._LevelLaws
    init, drop, suffixes, rest, cell = L.__init__, L.drop, L._suffixes, L.rest, L._cell
    starts = {}  # level -> its columns' level-start residuals, keeping each level alive
    epoch, built = Counter(), Counter()

    def spy_init(self, t, q):
        starts[self] = t.c_res[:]
        init(self, t, q)

    def spy_drop(self):
        epoch[self] += 1
        drop(self)

    def spy_suffixes(self, i, j):
        built["suffix", self, epoch[self], i] += 1
        return suffixes(self, i, j)

    def spy_rest(self, i, j):
        law = rest(self, i, j)
        assert len(law) <= starts[self][j] + 1
        return law

    def spy_cell(self, l, even):
        law = cell(self, l, even)
        assert law is None or len(law) <= starts[self][l] + 1
        return law

    mixed = integer_sampler.mixed_column_sum_pmf

    def spy_mixed(*args):  # only `rest` builds column laws here
        built["rest", list(starts)[-1], args] += 1
        return mixed(*args)

    for name, fn in (("__init__", spy_init), ("drop", spy_drop), ("_suffixes", spy_suffixes),
                     ("rest", spy_rest), ("_cell", spy_cell)):
        monkeypatch.setattr(L, name, fn)
    monkeypatch.setattr(integer_sampler, "mixed_column_sum_pmf", spy_mixed)
    _random_masked_draws(31, 30)
    for s in range(4):
        for scan in ("column", "row"):
            sample_contingency_table([400, 3, 2, 2, 1], [396, 3, 3, 3, 3], rng=batch_rng(60, s),
                                     scan=scan, max_restarts=20)
            sample_contingency_table([7, 2, 9, 4, 3], [5, 6, 3, 8, 3], rng=batch_rng(50, s),
                                     scan=scan)
    return starts, epoch, built


def test_row_suffixes_are_built_once_per_drop(monkeypatch):
    # a row builds its plain suffixes once, and again only after a committed
    # bit that spends a row drops them
    starts, epoch, built = _spy_level_laws(monkeypatch)
    suffixes = [n for key, n in built.items() if key[0] == "suffix"]
    assert len(suffixes) > 400 and max(suffixes) == 1
    assert sum(epoch.values()) - len(starts) > 50  # drops after each level's first


def test_column_laws_are_built_once_per_level_at_their_cap(monkeypatch):
    # no law of a column's other cells is built twice in a level, and none is
    # cut past its own column's level-start residual
    starts, epoch, built = _spy_level_laws(monkeypatch)
    rests = {key[1:]: n for key, n in built.items() if key[0] == "rest"}
    assert len(rests) > 800 and max(rests.values()) == 1
    # levels of the skewed instance build short laws for their small columns
    assert any(args[3] < 10 for level, args in rests if max(starts[level]) > 100)


def _weighed(m, n, closed, r_res, c_res, q, i, j):
    """A level state with the given residuals and its approx weights at (i, j),
    checked against the uncancelled form; the table is left as it was."""
    mask = np.zeros((m, n), dtype=bool)
    for cell in closed:
        mask[cell] = True
    t = MaskedTable(np.zeros((m, n), dtype=np.int64), mask, r_res, c_res)
    before = _state(t)
    got = integer_sampler._LevelLaws(t, q).weights(i, j)
    want, _ = _uncancelled_weights(t, i, j, q)
    _assert_close(got, want)
    for a, b in zip(_state(t), before):
        assert np.array_equal(a, b)
    return got


def test_spent_line_edge_states():
    # column 0 is scanned, its two cells even, and its residual 1 is odd, so
    # the even law of cell (0, 0) is unreachable and bit 0 at (0, 1) weighs
    # 0; bit 1 spends row 0, closes (0, 0) and reads column 1's other cell
    w = _weighed(2, 2, [], [1, 3], [1, 3], [0.4, 0.6], 0, 1)
    assert w[0] == 0.0 and w[1] > 0.0
    # bit 1 at (1, 1) spends both its row and its column
    w = _weighed(3, 3, [], [2, 1, 3], [2, 1, 3], [0.5, 0.3, 0.7], 1, 1)
    assert w[0] > 0.0 and w[1] > 0.0
    # bit 1 at (0, 0) spends row 0, whose pin strands column 1
    w = _weighed(2, 2, [(1, 1)], [1, 2], [2, 1], [0.5, 0.5], 0, 0)
    assert w[0] > 0.0 and w[1] == 0.0


def _state(t):
    return [a.copy() for a in (t.entries, t.mask, t.r_res, t.c_res, t.open_r, t.open_c)]


def test_bit_trial_retracts_in_place():
    # every level state a column-major scan reaches: each candidate bit,
    # applied and retracted, or refused midway, leaves all six arrays as
    # they were.  Closed cells, as earlier levels leave them, let a row's
    # closure strand a column while its cells are being pinned.  A candidate
    # that spends row i pins its open cells in column order, then the rest of
    # a spent column j in row order; the approx proposal factor multiplies
    # its terms in this order.
    rng = np.random.default_rng(11)
    stranded = spent_rows = spent_cols = 0

    def scan(t):
        nonlocal stranded, spent_rows, spent_cols
        for j in range(t.n):
            for i in range(t.m):
                if t.mask[i, j]:
                    continue
                before = _state(t)
                fits = []
                for k in (0, 1):
                    row, col = [], []
                    if t.r_res[i] == k:
                        row = [(i, l, 0) for l in range(t.n) if not t.mask[i, l]]
                    if t.c_res[j] == k:
                        col = [(s, j, 0) for s in range(t.m)
                               if not t.mask[s, j] and (s, j, 0) not in row]
                    try:
                        pinned = integer_sampler._apply_bit(t, i, j, k)
                    except ContradictionError as e:
                        stranded += "and no open cells" in str(e)
                    else:
                        assert pinned == row + col
                        spent_rows += bool(row)
                        spent_cols += bool(col)
                        fits.append(k)
                        integer_sampler._retract_bit(t, i, j, k, pinned)
                    for a, b in zip(_state(t), before):
                        assert np.array_equal(a, b)
                if not fits:
                    return
                integer_sampler._apply_bit(t, i, j, int(rng.choice(fits)))

    for _ in range(120):
        m, n = rng.integers(2, 8, size=2)
        r = rng.integers(0, 4, size=m)
        c = np.bincount(rng.integers(0, n, size=int(r.sum())), minlength=n)
        try:
            t = MaskedTable.from_margins(r, c, rng.random((m, n)) < 0.4)
            t = deterministic_fill([], t, "integer").table
        except ContradictionError:
            continue
        scan(t)
    assert stranded > 10 and spent_rows > 20 and spent_cols > 20


def test_draw_copies_its_table_once_per_attempt(monkeypatch):
    # the front door and every level start fill in place; only an attempt
    # copies the prepared table
    copies = []
    copy = MaskedTable.copy
    monkeypatch.setattr(MaskedTable, "copy", lambda self: copies.append(1) or copy(self))
    e, diag = sample_contingency_table([10, 56, 13], [20, 14, 18, 27], rng=batch_rng(1, 0))
    assert diag.levels == 6 and diag.restarts == 0 and len(copies) == 1
    copies.clear()
    e, diag = sample_contingency_table([30] * 6, [30] * 6, rng=batch_rng(7, 2))
    assert diag.restarts == 1 and len(copies) == 2


def test_row_scan_errors_name_the_callers_table():
    # the row scan checks and fills the caller's table before it transposes,
    # so its errors read as the column scan's do
    zero = np.zeros((3, 3), dtype=bool)
    zero[0] = True
    for scan in ("column", "row"):
        with pytest.raises(InfeasibleError, match=r"line r0 has residual 2 and no open cells$"):
            sample_contingency_table([2, 0, 1], [1, 1, 1], zero, scan=scan, seed=0)
        with pytest.raises(ValueError, match=r"^mask shape \(3, 2\) does not match \(2, 3\)$"):
            sample_contingency_table([2, 1], [1, 1, 1], np.zeros((3, 2), dtype=bool), scan=scan,
                                     seed=0)


def _transposed_message(message):
    """`message` retold on the transpose: cells (i, j) as (j, i), rows as columns."""
    message = re.sub(r"\((\d+), (\d+)\)", r"(\2, \1)", message)
    message = re.sub(r"r=(\d+) c=(\d+)", r"r=\2 c=\1", message)
    return re.sub(r"line ([rc])", lambda g: "line " + "cr"["rc".index(g[1])], message)


def test_row_scan_dead_states_name_the_callers_cells():
    # the row scan runs as the column scan of the transpose; its dead states
    # name what that column scan names, transposed.  Streams 6 and 2 die at a
    # decision, 40 at the level 1 start.
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, 2:] = True
    r, c = [3, 5, 4, 6], [4, 5, 3, 6]
    for s, site in ((6, "cell (1, 0) in level 1"), (2, "cell (2, 1) in level 1"),
                    (40, "level 1 start")):
        with pytest.raises(DeadStateError) as col:
            sample_contingency_table(c, r, mask.T, rng=batch_rng(17, s), max_restarts=0)
        with pytest.raises(DeadStateError) as row:
            sample_contingency_table(r, c, mask, rng=batch_rng(17, s), max_restarts=0,
                                     scan="row")
        assert str(row.value) == _transposed_message(str(col.value))
        assert site in str(row.value)


def test_odd_residual_restarts_instead_of_failing(capsys):
    # this stream strands rows 3 and 4 with odd residuals in level 3; the
    # level end is a dead state and the draw restarts
    r = c = [30] * 6
    e, diag = sample_contingency_table(r, c, rng=batch_rng(7, 2))
    assert validate_table(e, r, c)
    assert diag.dead_states == 1 and diag.restarts == 1
    margins = ",".join(["30"] * 6)
    code = main(["sample-ct", "--rows", margins, "--cols", margins, "--seed", "7",
                 "--samples", "3", "--validate"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0 and len(lines) == 3
    assert all(json.loads(line)["valid"] for line in lines)


def test_negative_restart_budget_raises_value_error():
    exact = {"strategy": BitSamplerStrategy("exact")}
    for sampler, kw in ((sample_contingency_table, {}), (sample_contingency_table, exact),
                        (sample_binary_table, {})):
        with pytest.raises(ValueError, match="max_restarts"):
            sampler([2, 2], [2, 2], max_restarts=-1, rng=batch_rng(0, 0), **kw)
        # a float budget is refused, not truncated; a numpy integer draws like the int
        with pytest.raises(TypeError):
            sampler([2, 2], [2, 2], max_restarts=2.5, rng=batch_rng(0, 0), **kw)
        a, _ = sampler([2, 2], [2, 2], max_restarts=np.int64(2), rng=batch_rng(0, 0), **kw)
        b, _ = sampler([2, 2], [2, 2], max_restarts=2, rng=batch_rng(0, 0), **kw)
        assert np.array_equal(a, b)
    # a zero budget still allows the first attempt, and its dead state counts
    r = c = [30] * 6
    with pytest.raises(DeadStateError) as exc:
        sample_contingency_table(r, c, rng=batch_rng(7, 2), max_restarts=0)
    assert exc.value.diagnostics.dead_states == 1
    assert exc.value.diagnostics.restarts == 0


def test_package_has_no_assert_statements():
    # invariants are typed errors, so `python -O` cannot strip them
    src = Path(bittables.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, (path.name, asserts)


def test_package_imports_no_private_names_across_modules():
    # a module's underscore names are its own; others go through public API
    src = Path(bittables.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        private = [
            (node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert not private, (path.name, private)


DEMOTED_NAMES = {
    "pmf": ["ColumnParamScheme", "column_parameters", "conditioned_cell_pmf", "geometric_dist",
            "mixed_column_sum_pmf", "negative_binomial_dist", "poisson_binomial_point"],
    "integer_sampler": ["approx_bit_weight"],
    "binary_sampler": ["draw_binary_table", "full_line_weight"],
    "latin": ["level_class_targets"],
}


def test_package_surface_is_its_all():
    # every name the package imports is exported, and every export resolves
    tree = ast.parse(Path(bittables.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(bittables.__all__)
    assert len(bittables.__all__) == 38
    for name in bittables.__all__:
        assert getattr(bittables, name) is not None, name
    # kernel and decision helpers live in their modules, not in the package
    assert sum(len(names) for names in DEMOTED_NAMES.values()) == 11
    for module, names in DEMOTED_NAMES.items():
        mod = importlib.import_module(f"bittables.{module}")
        for name in names:
            assert name not in bittables.__all__, name
            assert callable(getattr(mod, name)), (module, name)
    assert not hasattr(bittables.pmf, "DiscretePMF")
    # Latin squares are enumerated next to their type; counting knows only grids
    assert not hasattr(bittables.counting, "enumerate_latin_squares")
    assert not hasattr(bittables.CountOracle, "enumerate_latin_squares")


_OPTIMIZE_DRAWS = """
    import json
    import numpy as np
    from bittables import batch_rng, sample_binary_table, sample_contingency_table
    zero = np.eye(5, dtype=bool)
    ct, ct_diag = sample_contingency_table([30] * 6, [30] * 6, rng=batch_rng(7, 2))
    bt, bt_diag = sample_binary_table([2] * 5, [2] * 5, zero, rng=batch_rng(4, 1))
    print(json.dumps([ct.tolist(), ct_diag.as_dict(), bt.tolist(), bt_diag.as_dict()]))
"""


def test_invariants_hold_under_python_optimize():
    """The draws made under `python -O` equal those made with asserts on."""
    outs = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", textwrap.dedent(_OPTIMIZE_DRAWS)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    zero = np.eye(5, dtype=bool)
    ct, ct_diag = sample_contingency_table([30] * 6, [30] * 6, rng=batch_rng(7, 2))
    bt, bt_diag = sample_binary_table([2] * 5, [2] * 5, zero, rng=batch_rng(4, 1))
    assert outs[0] == [ct.tolist(), ct_diag.as_dict(), bt.tolist(), bt_diag.as_dict()]
    assert ct_diag.dead_states == 1 and validate_table(bt, [2] * 5, [2] * 5, zero)
