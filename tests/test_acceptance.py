"""Release acceptance battery.

One test per criterion, each ending in a single [PASS]/[FAIL] line that the
conftest hook replays after the run.  Statistical criteria draw a fresh
second stream when the first chi-square fails, so a lone 1%-level fluke in a
battery of hundreds of tests does not fail the build; a real bias fails both
stages.  All seeds are fixed, so reruns are bit-for-bit repeatable.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np

import oracles
from conftest import record_line

from bittables import (
    BinaryStrategy,
    BitSamplerStrategy,
    InfeasibleError,
    MaskedTable,
    batch_rng,
    chi_square_uniformity,
    count_binary_tables,
    count_integer_tables,
    deterministic_fill,
    enumerate_binary_tables,
    enumerate_integer_tables,
    enumerate_latin_squares,
    enumerate_partitions,
    iter_latin_squares,
    poisson_binomial_pmf,
    sample_binary_table,
    sample_contingency_table,
    sample_distinct_partition,
    sample_latin_square,
    sample_partition,
)
from bittables.cli import main
from bittables.pmf import geometric_pmf

SIGNIFICANCE = 0.01


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    record_line(line)


def _two_stage(keys, draw, samples, master, index):
    """Chi-square the draw against uniform on keys, once per stream.

    Passes when either stream passes; a draw outside keys fails outright.
    Returns (ok, last statistic).
    """
    worst = 0.0
    for stage in (0, 1):
        rng = batch_rng(master, 2 * index + stage)
        counts = Counter(draw(rng) for _ in range(samples))
        if set(counts) - set(keys):
            return False, float("inf")
        rep = chi_square_uniformity([counts[k] for k in keys], len(keys), SIGNIFICANCE)
        worst = max(worst, rep.statistic)
        if rep.passed:
            return True, rep.statistic
    return False, worst


def test_criterion_01_count_anchors():
    t0 = time.perf_counter()
    checks = [
        (count_integer_tables((2, 2), (2, 2)), oracles.count_integer((2, 2), (2, 2)), 3),
        (count_binary_tables([3] * 6, [3] * 6), oracles.count_binary([3] * 6, [3] * 6), 297200),
        (len(enumerate_latin_squares(4)), oracles.count_latin(4), 576),
        (sum(1 for _ in iter_latin_squares(5)), oracles.count_latin(5), 161280),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(got == ref == want for got, ref, want in checks) and elapsed < 60.0
    _report(1, "count anchors vs independent oracles", ok,
            f"counts {[got for got, _, _ in checks]}, {elapsed:.1f}s")
    assert ok, checks


_EXACT_INT = BitSamplerStrategy(kind="exact")
_EXACT_BIN = BinaryStrategy(kind="exact")


def _balanced_pairs(m, n, top):
    for r in itertools.product(range(top + 1), repeat=m):
        for c in itertools.product(range(top + 1), repeat=n):
            if sum(r) == sum(c):
                yield r, c


def _random_mask(m, n, rng):
    while True:
        mask = rng.random((m, n)) < 0.25
        if mask.any():
            return mask


def _instance_verdict(kind, r, c, mask, master, index):
    """One instance of the exact-strategy sweep.

    True/False for a tested instance; None when the mask empties the
    solution set and the sampler correctly refuses to draw.
    """
    if kind == "integer":
        keys = list(enumerate_integer_tables(r, c, mask))

        def draw(rng):
            entries, _ = sample_contingency_table(
                r, c, forced_zero=mask, strategy=_EXACT_INT, rng=rng)
            return tuple(map(tuple, entries.tolist()))
    else:
        keys = list(enumerate_binary_tables(r, c, mask))

        def draw(rng):
            entries, _ = sample_binary_table(
                r, c, forced_zero=mask, strategy=_EXACT_BIN, rng=rng)
            return tuple(map(tuple, entries.tolist()))

    if not keys:
        try:
            draw(batch_rng(master, 2 * index))
        except InfeasibleError:
            return None
        return False
    if len(keys) == 1:
        rng = batch_rng(master, 2 * index)
        return draw(rng) == keys[0] and draw(rng) == keys[0]
    ok, _ = _two_stage(keys, draw, 30 * len(keys), master, index)
    return ok


def _exactness_sweep(kind, dims, top, master):
    checked = refused = failed = 0
    index = 0
    for m in dims:
        for n in dims:
            for r, c in _balanced_pairs(m, n, top):
                mask_rng = batch_rng(master + 1000, index)
                for mask in (None, _random_mask(m, n, mask_rng)):
                    verdict = _instance_verdict(kind, r, c, mask, master, index)
                    index += 1
                    if verdict is None:
                        refused += 1
                    else:
                        checked += 1
                        failed += not verdict
    return checked, refused, failed


def test_criterion_02_exact_strategy_uniformity():
    t0 = time.perf_counter()
    ci, ri, fi = _exactness_sweep("integer", (1, 2, 3), 3, 210)
    cb, rb, fb = _exactness_sweep("binary", (1, 2, 3, 4), 2, 220)
    elapsed = time.perf_counter() - t0
    ok = fi == 0 and fb == 0 and elapsed < 300.0
    _report(2, "exact strategies uniform over the small-instance sweep", ok,
            f"integer {ci} instances, binary {cb} instances, {fi + fb} failed, "
            f"{ri + rb} infeasible refusals, {elapsed:.0f}s")
    assert ok, (fi, fb, elapsed)


def test_criterion_03_partition_uniformity():
    t0 = time.perf_counter()
    keys8 = list(enumerate_partitions(8))
    ok8, s8 = _two_stage(
        keys8, lambda rng: tuple(sample_partition(8, rng=rng).parts()),
        220_000, 310, 0)
    keys10 = list(enumerate_partitions(10, distinct=True))
    ok10, s10 = _two_stage(
        keys10, lambda rng: tuple(sample_distinct_partition(10, rng=rng).parts()),
        100_000, 310, 1)
    elapsed = time.perf_counter() - t0
    ok = ok8 and ok10 and len(keys8) == 22 and len(keys10) == 10 and elapsed < 120.0
    _report(3, "partition samplers uniform (n=8 all, n=10 distinct)", ok,
            f"chi2 {s8:.1f} on 22 outcomes, {s10:.1f} on 10 outcomes, {elapsed:.0f}s")
    assert ok, (ok8, ok10, elapsed)


def test_criterion_04_fill_fixture():
    r = (10, 56, 13)
    c = (20, 14, 18, 27)
    mask = np.zeros((3, 4), dtype=bool)
    for cell in ((0, 2), (1, 0), (2, 1), (2, 2), (2, 3)):
        mask[cell] = True
    t = deterministic_fill([], MaskedTable.from_margins(r, c, mask)).table
    open_cells = sorted(map(tuple, np.argwhere(~t.mask)))
    ok = (open_cells == [(0, 1), (0, 3), (1, 1), (1, 3)]
          and list(t.r_res) == [3, 38, 0]
          and list(t.c_res) == [0, 14, 0, 27])
    _report(4, "constraint propagation reduces fixture to its open 2x2", ok,
            f"rows {list(t.r_res)}, cols {list(t.c_res)}")
    assert ok, (open_cells, t.r_res, t.c_res)


def test_criterion_05_poisson_binomial_agreement():
    t0 = time.perf_counter()
    rng = batch_rng(510, 0)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        ps = rng.random(size)
        ref = np.zeros(size + 1)
        ref[0] = 1.0
        for i, p in enumerate(ps):
            ref[1:i + 2] = ref[1:i + 2] * (1.0 - p) + ref[:i + 1] * p
            ref[0] *= 1.0 - p
        for k in range(size + 1):
            worst = max(worst, abs(poisson_binomial_pmf(ps, k) - ref[k]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(5, "transform-based line weights match direct convolution", ok,
            f"worst |diff| {worst:.2e} over 1000 cases, {elapsed:.1f}s")
    assert ok, (worst, elapsed)


def test_criterion_06_bit_split_identity():
    worst = 0.0
    for q in np.linspace(0.04, 0.96, 20):
        low = q / (1.0 + q)
        for k in range(13):
            split = (low if k % 2 else 1.0 - low) * geometric_pmf(q * q, k // 2)
            worst = max(worst, abs(geometric_pmf(q, k) - split))
    ok = worst <= 1e-12
    _report(6, "geometric law equals its low-bit/high-bits split", ok,
            f"worst |diff| {worst:.2e}")
    assert ok, worst


def test_criterion_07_latin_validity():
    t0 = time.perf_counter()
    invalid = 0
    restarts7 = dead7 = 0
    for n in (4, 5, 6, 7, 8, 16):
        for t in range(1000):
            sq, diag = sample_latin_square(n, rng=batch_rng(700 + n, t))
            invalid += not sq.is_valid()
            if n == 7:
                restarts7 += diag.restarts
                dead7 += diag.dead_states
    elapsed = time.perf_counter() - t0
    ok = invalid == 0 and elapsed < 600.0
    _report(7, "latin samplers valid at every order", ok,
            f"{invalid}/6000 invalid, n=7 restarts {restarts7} "
            f"(dead states {dead7}), {elapsed:.0f}s")
    assert ok, (invalid, elapsed)


def test_criterion_08_support_coverage():
    t0 = time.perf_counter()
    all4 = sorted(sq.values for sq in enumerate_latin_squares(4))
    seen4 = Counter()
    rng = batch_rng(801, 0)
    draws4 = 0
    while len(seen4) < len(all4) and draws4 < 2_000_000:
        sq, _ = sample_latin_square(4, rng=rng)
        seen4[sq.values] += 1
        draws4 += 1
    rep4 = chi_square_uniformity([seen4[k] for k in all4], len(all4), SIGNIFICANCE)

    keys = list(enumerate_binary_tables((2, 2, 2), (2, 2, 2)))
    seenb = Counter()
    rng = batch_rng(802, 0)
    drawsb = 0
    while len(seenb) < len(keys) and drawsb < 200 * len(keys):
        entries, _ = sample_binary_table((2, 2, 2), (2, 2, 2), rng=rng)
        seenb[tuple(map(tuple, entries.tolist()))] += 1
        drawsb += 1
    repb = chi_square_uniformity([seenb[k] for k in keys], len(keys), SIGNIFICANCE)

    elapsed = time.perf_counter() - t0
    ok = len(seen4) == 576 and set(seenb) == set(keys)
    _report(8, "approximate samplers cover the full support", ok,
            f"576/576 squares in {draws4} draws (chi2 {rep4.statistic:.0f}, "
            f"not gated), {len(keys)}/{len(keys)} tables in {drawsb} draws "
            f"(chi2 {repb.statistic:.1f}, not gated), {elapsed:.0f}s")
    assert ok, (len(seen4), draws4, len(seenb), drawsb)


CLI_CASES = [
    ["sample-ct", "--rows", "3,3,3", "--cols", "3,3,3", "--strategy", "exact",
     "--samples", "2", "--seed", "11"],
    ["sample-ct", "--rows", "4,2", "--cols", "3,3", "--strategy", "approx",
     "--retain-levels", "--samples", "2", "--seed", "12", "--format", "csv"],
    ["sample-ct", "--rows", "5,3", "--cols", "4,2,2", "--mask", "0,1",
     "--samples", "2", "--seed", "13"],
    ["sample-binary", "--rows", "2,2,2", "--cols", "2,2,2", "--samples", "2",
     "--seed", "14", "--validate"],
    ["sample-binary", "--rows", "2,2", "--cols", "2,2", "--strategy", "exact",
     "--samples", "2", "--seed", "15"],
    ["sample-latin", "--n", "5", "--samples", "2", "--seed", "16", "--validate"],
    ["sample-latin", "--n", "6", "--samples", "1", "--seed", "17", "--format", "csv"],
    ["sample-partition", "--n", "20", "--samples", "3", "--seed", "18"],
    ["sample-partition", "--n", "15", "--distinct", "--samples", "3", "--seed", "19"],
    ["count", "--integer", "--rows", "3,3,3", "--cols", "3,3,3"],
    ["count", "--binary", "--rows", "3,3,3,3", "--cols", "3,3,3,3"],
    ["count", "--latin", "--n", "4"],
    ["test-uniformity", "--kind", "ct", "--rows", "2,2", "--cols", "2,2",
     "--samples", "300", "--seed", "20"],
    ["test-uniformity", "--kind", "partition", "--n", "6", "--samples", "500",
     "--seed", "21"],
]


def test_criterion_09_cli_determinism(capsys):
    mismatched = []
    for argv in CLI_CASES:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            runs.append((code, capsys.readouterr().out))
        if runs[0] != runs[1]:
            mismatched.append(argv[0])
    ok = not mismatched
    _report(9, "CLI output byte-identical across reruns", ok,
            f"{len(CLI_CASES)} commands" + (f", mismatches {mismatched}" if mismatched else ""))
    assert ok, mismatched


def test_criterion_10_cost_growth():
    t0 = time.perf_counter()
    bits = {}
    for n in (8, 16, 32):
        runs = [sample_latin_square(n, rng=batch_rng(1000 + n, t)) for t in range(3)]
        assert all(sq.is_valid() for sq, _ in runs)
        bits[n] = sum(d.bits_consumed for _, d in runs) / len(runs)
    scale = max(bits[n] / (n * n * math.log2(n)) for n in bits)
    fitted = {n: scale * n * n * math.log2(n) for n in bits}
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"n={n}: {bits[n]:.0f} bits <= {fitted[n]:.0f} bound"
                       for n in (8, 16, 32))
    _report(10, "random-bit cost growth (informational, not gated)", True,
            f"{detail}, {elapsed:.0f}s")
