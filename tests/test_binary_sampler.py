from collections import Counter

import numpy as np
import pytest

from bittables import binary_sampler, latin
from bittables.binary_sampler import (
    BinaryStrategy,
    _binomial_point,
    _entry_decision,
    _quiet,
    _refresh_params,
    _row_law,
    _row_point,
    full_line_weight,
    sample_binary_table,
)
from bittables.counting import CountOracle
from bittables.diagnostics import SamplerDiagnostics
from bittables.errors import ContradictionError, InfeasibleError, OracleLimitError
from bittables.latin import sample_latin_square
from bittables.pmf import poisson_binomial_pmf
from bittables.seeding import batch_rng
from bittables.stats import chi_square_uniformity
from bittables.table import (
    MaskedTable,
    binary_feasible,
    fill_in_place,
    validate_table,
)

import oracles


def test_line_weight_hand_values():
    # 2x2 permutation instance, p = 1/2 everywhere.  Both candidate bits
    # leave one open row cell and one open column cell that must absorb the
    # remaining residual: weight (1/2)*(1/2) either way.
    t = MaskedTable.from_margins([1, 1], [1, 1])
    p = [0.5, 0.5]
    for k in (0, 1):
        assert abs(full_line_weight(0, 0, k, t, p) - 0.25) < 1e-12
    # residual beyond the open cells is unreachable
    t2 = MaskedTable.from_margins([2, 0], [1, 1])
    assert full_line_weight(0, 0, 0, t2, p) == 0.0


def test_line_weight_excludes_own_cell():
    # row 0 of a 3-col instance: cell (0,0) plus two open cells at p=0.4;
    # residual 2 net of bit 1 leaves 1 for the others
    t = MaskedTable.from_margins([2, 1, 1], [2, 1, 1])
    p = np.array([0.5, 0.4, 0.4])
    w = full_line_weight(0, 0, 1, t, p)
    # row part: P(B(0.4)+B(0.4) = 1) = 2*0.4*0.6; col part: P(B(0.5)+B(0.5)=1)
    want = (2 * 0.4 * 0.6) * (2 * 0.5 * 0.5)
    assert abs(w - want) < 1e-12


def test_line_kernels_match_the_reference_laws():
    # the row recursion against the direct convolution and the binomial column
    # factor against the transform, with 0/1 parameters, empty lines and k at
    # both ends of the support; then every weight of random states against both
    rng = np.random.default_rng(31)
    rows = [[], [0.0], [1.0], [1.0, 0.0, 1.0, 1.0, 0.0]]
    rows += [rng.random(n).tolist() for n in rng.integers(1, 40, size=150)]
    rows += [rng.choice([0.0, 1.0, 0.3], size=n).tolist() for n in rng.integers(1, 20, size=50)]
    for ps in rows:
        for k in {0, len(ps), int(rng.integers(0, len(ps) + 1))}:
            assert abs(_row_point(ps, k) - oracles.poisson_binomial_convolve(ps, k)) < 1e-12
    for n in range(40):
        for q in (0.0, 1.0, 0.5, float(rng.random())):
            for k in range(n + 1):
                assert abs(_binomial_point(n, q, k) - poisson_binomial_pmf([q] * n, k)) < 1e-12
    # past float range comb(n, k) overflows, and the row recursion takes over
    want = oracles.poisson_binomial_convolve([0.5] * 1100, 550)
    assert abs(_binomial_point(1100, 0.5, 550) - want) < 1e-12
    checked = 0
    for _ in range(120):
        m, n = rng.integers(2, 7, size=2)
        r = rng.integers(0, n + 1, size=m)
        c = np.zeros(n, dtype=np.int64)
        for _ in range(int(r.sum())):
            c[rng.integers(0, n)] += 1
        if not binary_feasible(r, c):
            continue
        t = MaskedTable.from_margins(r, c)
        fill_in_place((), t, "binary", range(m + n))
        for _ in range(rng.integers(0, 4)):
            opens = np.argwhere(~t.mask)
            if len(opens) == 0:
                break
            i, j = opens[rng.integers(0, len(opens))]
            try:
                fill_in_place([(i, j, int(rng.integers(0, 2)))], t, "binary")
            except ContradictionError:
                pass
        for p in (_refresh_params(t), rng.random(n).tolist()):
            for i, j in np.argwhere(~t.mask):
                row = [p[l] for l in t.open_in_row(i) if l != j]
                n_col = t.open_c[j] - 1
                for k in (0, 1):
                    r_i, c_j = t.r_res[i] - k, t.c_res[j] - k
                    want = 0.0
                    if 0 <= r_i <= len(row) and 0 <= c_j <= n_col:
                        want = oracles.poisson_binomial_convolve(row, r_i) * poisson_binomial_pmf(
                            [p[j]] * n_col, c_j
                        )
                    assert abs(full_line_weight(i, j, k, t, p) - want) < 1e-12
                    checked += 1
    assert checked > 500


def test_row_law_entries_do_not_depend_on_the_cap():
    # entry x of the capped row convolution is the uncapped point at x, bit
    # for bit, with 0/1 parameters and empty rows among the inputs
    rng = np.random.default_rng(37)
    rows = [[], [0.0], [1.0], [1.0, 0.0, 1.0, 1.0, 0.0], [0.0, 0.0], [1.0] * 6]
    rows += [rng.random(n).tolist() for n in rng.integers(1, 30, size=100)]
    rows += [rng.choice([0.0, 1.0, 0.7], size=n).tolist() for n in rng.integers(1, 15, size=40)]
    for ps in rows:
        for cap in range(len(ps) + 2):
            law = _row_law(ps, cap)
            assert len(law) == cap + 1
            for x in range(cap + 1):
                assert law[x] == _row_point(ps, x)


def _random_fixed_points(rng, count):
    """Masked 0/1 fixed points of the binary fill, some after a few kept fills."""
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(2, 8, size=2))
        ones = rng.random((m, n)) < rng.uniform(0.2, 0.8)
        zero = (rng.random((m, n)) < 0.2) & ~ones
        t = MaskedTable.from_margins(ones.sum(axis=1), ones.sum(axis=0), zero)
        fill_in_place((), t, "binary", range(m + n))
        for _ in range(rng.integers(0, 4)):
            opens = np.argwhere(~t.mask)
            if len(opens) == 0:
                break
            i, j = opens[rng.integers(0, len(opens))]
            try:
                fill_in_place([(i, j, int(rng.integers(0, 2)))], t, "binary")
            except ContradictionError:
                pass
        yield t


class _Stop(Exception):
    pass


def _decision_weights(monkeypatch, i, j, t, strategy, p):
    """The two weights `_entry_decision` hands to `choose_bit`, with `t` left as it was."""
    seen = []

    def record(w0, w1, *rest):
        seen.append((w0, w1))
        raise _Stop

    monkeypatch.setattr(binary_sampler, "choose_bit", record)
    with pytest.raises(_Stop):
        _entry_decision(i, j, t, strategy, p, strategy.oracle, None, None)
    return seen[0]


def test_quiet_weights_equal_the_trial_fill_weights(monkeypatch):
    # on random masked fixed points each decision's weights equal, with ==,
    # those of filling the candidate in place, weighing and retracting it:
    # full-line under refreshed and random parameters, and exact counts; the
    # table is left as it was
    rng = np.random.default_rng(59)
    full_line = BinaryStrategy()
    oracle = CountOracle()
    exact = BinaryStrategy(kind="exact", oracle=oracle)
    quiet = loud = 0
    for t in _random_fixed_points(rng, 80):
        state = repr([t.cells, t.closed, t.r_res, t.c_res, t.open_r, t.open_c])
        for i, j in np.argwhere(~t.mask):
            i, j = int(i), int(j)
            for p in (_refresh_params(t), rng.random(t.n).tolist()):
                want, counts = [0, 0], [0, 0]
                for k in (0, 1):
                    both = _quiet(t.r_res[i], t.open_r[i], k) and _quiet(t.c_res[j], t.open_c[j], k)
                    quiet += both
                    loud += not both
                    try:
                        forced = fill_in_place([(i, j, k)], t, "binary")
                    except ContradictionError:
                        continue
                    assert not both or forced == [(i, j, k)]
                    prod = 1.0
                    for _, l, v in forced:
                        prod *= p[l] if v else (1.0 - p[l])
                    want[k] = prod * full_line_weight(i, j, 0, t, p)
                    counts[k] = oracle.count_binary_tables(t.r_res, t.c_res, t.closed)
                    t.retract(forced)
                assert _decision_weights(monkeypatch, i, j, t, full_line, p) == tuple(want)
            assert _decision_weights(monkeypatch, i, j, t, exact, None) == tuple(counts)
        assert repr([t.cells, t.closed, t.r_res, t.c_res, t.open_r, t.open_c]) == state
    assert quiet > 1000 and loud > 1000


def test_quiet_decisions_make_no_trial_fill(monkeypatch):
    # under full-line a decision whose two candidates both leave their lines
    # forcing nothing never calls the propagation routine; a forcing one, on
    # the 2x2 permutation instance, fills both candidates in place
    calls = []
    fill = binary_sampler.fill_in_place

    def counted(*args):
        calls.append(args[0])
        return fill(*args)

    monkeypatch.setattr(binary_sampler, "fill_in_place", counted)
    strategy = BinaryStrategy()
    bits = set()
    for s in range(4):
        t = MaskedTable.from_margins([2] * 4, [2] * 4)
        p = _refresh_params(t)
        diag = SamplerDiagnostics()
        bits.add(_entry_decision(0, 0, t, strategy, p, None, batch_rng(5, s), diag))
        assert calls == []
        assert t.closed[0][0] and t.r_res[0] == 2 - t.cells[0][0]
        assert sum(map(sum, t.closed)) == 1 and diag.bits_consumed == 1
        assert p == _refresh_params(t)
    assert bits == {0, 1}
    t = MaskedTable.from_margins([1, 1], [1, 1])
    _entry_decision(0, 0, t, strategy, _refresh_params(t), None, batch_rng(5, 9),
                    SamplerDiagnostics())
    assert calls == [[(0, 0, 0)], [(0, 0, 1)]] and t.is_complete()


class _FrozenList(list):
    def __setitem__(self, *args):
        raise AssertionError("the static column parameters were written")


def test_column_parameters_follow_each_fill(monkeypatch):
    # before every full-line decision the kept list equals a rebuild bit for
    # bit, on streams whose class tables restart too; it is built once per
    # attempt, a static list once per table and never written, and the exact
    # scan builds none
    rebuild = binary_sampler._refresh_params
    decide = binary_sampler._entry_decision
    draw = latin.draw_binary_table
    built, tables, decisions = [], [], []
    frozen = [False]

    def build(t):
        built.append(_FrozenList(rebuild(t)) if frozen[0] else rebuild(t))
        return built[-1]

    def checked(i, j, t, strategy, p, *rest):
        if strategy.kind == "full-line":
            want = rebuild(t) if strategy.refresh else built[-1]
            assert p is built[-1] and np.array(p).tobytes() == np.array(want).tobytes()
            decisions.append((i, j))
        return decide(i, j, t, strategy, p, *rest)

    def draw_counted(*args):
        tables.append(args[1])
        return draw(*args)

    monkeypatch.setattr(binary_sampler, "_refresh_params", build)
    monkeypatch.setattr(binary_sampler, "_entry_decision", checked)
    monkeypatch.setattr(latin, "draw_binary_table", draw_counted)
    restarts = 0
    for n, stream in ((7, 455), (10, 77)):
        restarts += sample_latin_square(n, rng=batch_rng(71, stream))[1].restarts
    sample_binary_table([3, 2, 4, 1, 2], [2, 3, 2, 3, 2], seed=5)
    assert restarts >= 2 and len(built) == len(tables) + 1 + restarts

    frozen[0] = True
    built.clear()
    tables.clear()
    static = BinaryStrategy(refresh=False)
    restarts = sample_latin_square(10, static, rng=batch_rng(71, 13))[1].restarts
    sample_binary_table([3, 2, 4, 1, 2], [2, 3, 2, 3, 2], strategy=static, seed=5)
    assert restarts == 1 and len(built) == len(tables) + 1

    built.clear()
    for refresh in (True, False):
        exact = BinaryStrategy(kind="exact", refresh=refresh)
        sample_binary_table([2, 2, 2], [2, 2, 2], strategy=exact, seed=1)
    assert built == [] and len(decisions) > 300


def _stranding_instance(rng):
    """A random 0/1 fixed point whose rows :a reach only columns :b, which
    take all their ones from those rows; the open cells below the block hold
    0 in every table, though no single line shows that a 1 there fails."""
    m, n = (int(x) for x in rng.integers(4, 7, size=2))
    a, b = int(rng.integers(2, m - 1)), int(rng.integers(2, n - 1))
    mask = np.zeros((m, n), dtype=bool)
    mask[:a, b:] = True
    ones = rng.random((m, n)) < 0.5
    ones[:a, b:] = ones[a:, :b] = False
    t = MaskedTable.from_margins(ones.sum(axis=1), ones.sum(axis=0), mask)
    fill_in_place((), t, "binary", range(m + n))
    return t


def test_fill_count_equals_the_cell_alone_count():
    # forced cells hold in every completion: on masked 0/1 fixed points the
    # count of a candidate's propagated fill is the count with the cell alone
    # committed, and a fill that contradicts has none
    rng = np.random.default_rng(47)
    filled = contradicted = 0
    for _ in range(60):
        t = _stranding_instance(rng)
        for i, j in zip(*np.nonzero(~t.mask)):
            for k in (0, 1):  # on a fixed point both bits fit an open cell's residuals
                t.finalize(i, j, k)
                alone = oracles.count_binary(t.r_res, t.c_res, t.closed)
                t.retract([(i, j, k)])
                try:
                    forced = fill_in_place([(i, j, k)], t, "binary")
                except ContradictionError:
                    assert alone == 0
                    contradicted += 1
                    continue
                assert oracles.count_binary(t.r_res, t.c_res, t.closed) == alone
                filled += len(forced) > 1
                t.retract(forced)
    assert filled > 200 and contradicted > 20


class _RecordingOracle(CountOracle):
    def __init__(self):
        super().__init__()
        self.queries = []

    def count_binary_tables(self, r, c, forced_zero=None):
        self.queries.append((list(r), list(c), np.array(forced_zero, dtype=bool)))
        return super().count_binary_tables(r, c, forced_zero)


def test_exact_scan_queries_fixed_points():
    # every state the exact 0/1 scan counts is a fixed point of the binary
    # fill: a fill from every line forces nothing, on 0/1 tables (past the
    # front door's feasibility count) and on the Latin exact cascade
    oracle = _RecordingOracle()
    exact = BinaryStrategy(kind="exact", oracle=oracle)
    scanned = []
    zero = np.eye(5, dtype=bool)
    for r, c, mask in (([2, 2, 2], [2, 2, 2], None), ([3, 2, 4, 1, 2], [2, 3, 2, 3, 2], None),
                       ([2, 1, 3, 2, 2], [3, 2, 1, 2, 2], zero)):
        for s in range(5):
            sample_binary_table(r, c, mask, strategy=exact, rng=batch_rng(61, s))
            scanned += oracle.queries[1:]
            oracle.queries.clear()
    for n in (4, 5, 6):
        sample_latin_square(n, exact, rng=batch_rng(67, n))
    scanned += oracle.queries
    for r, c, closed in scanned:
        t = MaskedTable(np.zeros(closed.shape), closed, r, c)
        assert fill_in_place((), t, "binary", range(len(r) + len(c))) == []
    assert len(scanned) >= 300


def test_first_cell_law_symmetric_instance():
    # 3x3, margins all 2, full-line weights with refreshed p = 2/3: the k=0
    # branch forces the rest of column 0 to ones, so
    #   w0 = (1/3)(2/3)(2/3) * P(row 0 absorbs 2) = 4/27 * 4/9
    #   w1 = (2/3) * P(row 0 absorbs 1) * P(col 0 absorbs 1) = 2/3 * 16/81
    # giving P(bit=0) = 1/3, equal to the true marginal 2/6.  Nothing is
    # forced before (0, 0), so it is the table's first decision and first
    # random draw.
    zeros = 0
    trials = 4000
    for s in range(trials):
        e, _ = sample_binary_table([2, 2, 2], [2, 2, 2], rng=batch_rng(11, s))
        zeros += e[0, 0] == 0
    assert abs(zeros / trials - 1 / 3) < 0.03


def test_refresh_params_per_cell_mean():
    # p[j] = c[j] / open cells of column j; static parameters are these
    # values at the initial instance
    zero = np.array([[False, True], [False, False], [False, False]])
    t = MaskedTable.from_margins([1, 1, 1], [2, 1], zero)
    assert np.allclose(_refresh_params(t), [2 / 3, 1 / 2])


def test_refresh_params_match_the_array_rule():
    # c_res / open_c clipped to [0, 1], 0.0 on a column with no open cells:
    # the list rule equals the numpy rule bit for bit, spent, zero-open,
    # overfull (c > open) and negative columns included
    rng = np.random.default_rng(13)
    t = MaskedTable.from_margins([0], [0] * 8)
    zero_open = overfull = 0
    for _ in range(2000):
        c = rng.integers(-2, 12, size=8)
        o = rng.integers(0, 9, size=8)
        t.c_res, t.open_c = c.tolist(), o.tolist()
        want = np.clip(np.divide(c, o, out=np.zeros(8), where=o > 0), 0.0, 1.0)
        got = _refresh_params(t)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()
        zero_open += int(np.sum((o == 0) & (c > 0)))
        overfull += int(np.sum(c > o))
    assert zero_open > 100 and overfull > 1000


def test_exact_strategy_uniform_3x3():
    tables = list(oracles.iter_binary_tables([2, 2, 2], [2, 2, 2]))
    assert len(tables) == 6
    strategy = BinaryStrategy(kind="exact")
    counts = Counter()
    for s in range(60 * 6):
        e, _ = sample_binary_table([2, 2, 2], [2, 2, 2], strategy=strategy, rng=batch_rng(3, s))
        counts[tuple(map(tuple, e.tolist()))] += 1
    assert set(counts) == set(tables)
    rep = chi_square_uniformity([counts[t] for t in tables], 6)
    assert rep.passed, rep.as_dict()


def test_exact_strategy_uniform_masked():
    zero = np.array(
        [[False, False, True], [False, False, False], [False, False, False]]
    )
    tables = list(oracles.iter_binary_tables([1, 2, 1], [1, 1, 2], zero))
    assert len(tables) > 1
    strategy = BinaryStrategy(kind="exact")
    counts = Counter()
    for s in range(60 * len(tables)):
        e, _ = sample_binary_table(
            [1, 2, 1], [1, 1, 2], zero, strategy=strategy, rng=batch_rng(29, s)
        )
        counts[tuple(map(tuple, e.tolist()))] += 1
    assert set(counts) == set(tables)
    rep = chi_square_uniformity([counts[t] for t in tables], len(tables))
    assert rep.passed, rep.as_dict()


def test_soft_strategies_produce_valid_tables():
    r, c = [3, 2, 4, 1], [2, 3, 2, 3]
    for s in range(30):
        e, _ = sample_binary_table(r, c, rng=batch_rng(7, s))
        assert validate_table(e, r, c, mode="binary")
    static = BinaryStrategy(kind="full-line", refresh=False)
    for s in range(30):
        e, _ = sample_binary_table(r, c, strategy=static, rng=batch_rng(13, s))
        assert validate_table(e, r, c, mode="binary")


def test_soft_coverage_small_instance():
    tables = set(oracles.iter_binary_tables([2, 2, 2], [2, 2, 2]))
    seen = set()
    for s in range(600):
        e, _ = sample_binary_table([2, 2, 2], [2, 2, 2], rng=batch_rng(23, s))
        seen.add(tuple(map(tuple, e.tolist())))
    assert seen == tables


def test_forced_decisions_consume_no_bits():
    # margins saturate the grid: every cell forced, zero random bits
    e, diag = sample_binary_table([2, 2], [2, 2], seed=0)
    assert np.array_equal(e, np.ones((2, 2), dtype=np.int64))
    assert diag.bits_consumed == 0


def test_determinism_and_seed_spread():
    r, c = [2, 1, 2], [1, 2, 2]
    a, _ = sample_binary_table(r, c, seed=77)
    b, _ = sample_binary_table(r, c, seed=77)
    assert np.array_equal(a, b)
    seen = {tuple(map(tuple, sample_binary_table(r, c, seed=s)[0])) for s in range(30)}
    assert len(seen) > 1


def test_infeasible_and_limit_errors():
    with pytest.raises(InfeasibleError):
        sample_binary_table([3, 1], [2, 2], seed=0)  # row 0 exceeds its open cells
    zero = np.eye(2, dtype=bool)
    with pytest.raises(InfeasibleError):
        sample_binary_table([2, 0], [1, 1], zero, seed=0)
    with pytest.raises(OracleLimitError, match=r"^binary instance 9x9 exceeds limit 8$"):
        sample_binary_table(
            [1] * 9, [1] * 9, strategy=BinaryStrategy(kind="exact"), seed=0
        )
    with pytest.raises(ValueError):
        BinaryStrategy(kind="soft")
    with pytest.raises(ValueError):
        BinaryStrategy(kind="tail-line")  # a CLI alias only


def test_mask_respected_in_samples():
    zero = np.array([[True, False, False], [False, True, False], [False, False, True]])
    for s in range(20):
        e, _ = sample_binary_table([1, 1, 1], [1, 1, 1], zero, rng=batch_rng(41, s))
        assert validate_table(e, [1, 1, 1], [1, 1, 1], zero, mode="binary")
