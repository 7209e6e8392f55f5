import json
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bittables.partitions import (
    Partition,
    distinct_partition_counts,
    enumerate_partitions,
    partition_counts,
    sample_distinct_partition,
    sample_partition,
)
from bittables.seeding import batch_rng
from bittables.stats import chi_square_uniformity

import oracles


def test_partition_container():
    p = Partition.from_parts([3, 1, 3, 2])
    assert p.n == 9 and p.pairs == ((1, 1), (2, 1), (3, 2))
    assert p.parts() == [3, 3, 2, 1]
    assert not p.is_distinct()
    assert Partition.from_parts([5, 3, 1]).is_distinct()
    with pytest.raises(ValueError):
        Partition(n=4, pairs=((2, 1),))  # sums to 2
    with pytest.raises(ValueError):
        Partition(n=4, pairs=((2, 0), (4, 1)))
    with pytest.raises(ValueError):
        Partition(n=6, pairs=((3, 1), (3, 1)))  # parts not ascending


def test_counts_match_enumeration():
    p = partition_counts(12)
    q = distinct_partition_counts(12)
    for n in range(13):
        assert p[n] == sum(1 for _ in oracles.iter_partitions(n))
        assert q[n] == sum(1 for _ in oracles.iter_partitions(n, distinct=True))
    assert p[5] == 7 and p[8] == 22
    assert q[6] == 4 and q[10] == 10


def test_count_known_large_value():
    assert partition_counts(100)[100] == 190569292


def test_euler_distinct_counts_match_subset_sum_dp():
    assert distinct_partition_counts(400) == oracles.distinct_partition_counts_dp(400)
    assert partition_counts(400) == oracles.partition_counts_dp(400)


def _fresh_process(script, timeout=60):
    """Stdout of `script` run in a new interpreter, whose count tables start empty."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tables_grown_in_steps_match_one_shot_build():
    out = _fresh_process("""
        import json
        from bittables.partitions import distinct_partition_counts, partition_counts
        print(json.dumps([[str(v) for v in f(m)] for m in (10, 500, 300)
                          for f in (partition_counts, distinct_partition_counts)]))
    """)
    got = [[int(v) for v in table] for table in json.loads(out)]
    p, q = oracles.partition_counts_dp(500), oracles.distinct_partition_counts_dp(500)
    assert got == [p[:11], q[:11], p, q, p[:301], q[:301]]


def test_mutating_a_returned_table_changes_nothing():
    # the draws grow both tables to exactly 350 entries, the size then asked for
    out = _fresh_process("""
        import json
        from bittables.partitions import (distinct_partition_counts, partition_counts,
                                          sample_distinct_partition, sample_partition)
        def draws():
            return [sample_partition(701, seed=4).pairs,
                    sample_distinct_partition(701, seed=4).pairs]
        before = draws()
        for table in (partition_counts(350), distinct_partition_counts(350)):
            table[:] = [0] * len(table)
        print(json.dumps([before == draws(),
                          [str(v) for v in partition_counts(500)],
                          [str(v) for v in distinct_partition_counts(500)]]))
    """)
    same, p, q = json.loads(out)
    assert same
    assert [int(v) for v in p] == oracles.partition_counts_dp(500)
    assert [int(v) for v in q] == oracles.distinct_partition_counts_dp(500)


def test_unrestricted_draws_match_golden():
    """Fixed-seed draws recorded before the count tables were cached; the
    cached tables and their logs must reproduce them exactly."""
    golden = json.loads((Path(__file__).parent / "data" / "partition_golden.json").read_text())
    for case in golden:
        got = sample_partition(case["n"], seed=case["seed"]).pairs
        assert [list(pk) for pk in got] == case["pairs"], (case["n"], case["seed"])


def test_hopeless_tilt_raises_within_a_second():
    # tilt=1e-9 proposes all-zero bits, so the odd target 3 is never met;
    # a child process turns a hang into a failed test
    out = _fresh_process("""
        import time
        from bittables import BitTablesError, sample_distinct_partition, sample_partition
        for sampler in (sample_partition, sample_distinct_partition):
            t0 = time.perf_counter()
            try:
                sampler(3, tilt=1e-9)
            except BitTablesError as e:
                print(type(e).__name__, time.perf_counter() - t0)
    """, timeout=30)
    lines = out.split("\n")[:2]
    assert [line.split()[0] for line in lines] == ["DeadStateError"] * 2, out
    assert all(float(line.split()[1]) < 1.0 for line in lines), out


def test_enumerate_partitions_exact_sets():
    got = set(enumerate_partitions(6))
    assert got == set(oracles.iter_partitions(6))
    assert len(got) == 11
    dist = list(enumerate_partitions(10, distinct=True))
    assert len(dist) == len(set(dist)) == 10
    assert all(len(set(t)) == len(t) for t in dist)


def test_sampler_degenerate_cases():
    assert sample_partition(0, seed=1).parts() == []
    assert sample_partition(1, seed=1).parts() == [1]
    assert sample_distinct_partition(2, seed=3).parts() == [2]
    with pytest.raises(ValueError):
        sample_partition(-1)
    with pytest.raises(ValueError):
        sample_partition(5, tilt=1.5)


def test_unrestricted_sampler_uniform_n6():
    outcomes = list(enumerate_partitions(6))
    counts = Counter()
    for s in range(200 * len(outcomes)):
        p = sample_partition(6, rng=batch_rng(601, s))
        counts[tuple(p.parts())] += 1
    assert set(counts) == set(outcomes)
    rep = chi_square_uniformity([counts[t] for t in outcomes], len(outcomes))
    assert rep.passed, rep.as_dict()


def test_distinct_sampler_uniform_n9():
    outcomes = list(enumerate_partitions(9, distinct=True))
    assert len(outcomes) == 8
    counts = Counter()
    for s in range(200 * len(outcomes)):
        p = sample_distinct_partition(9, rng=batch_rng(902, s))
        assert p.is_distinct()
        counts[tuple(p.parts())] += 1
    assert set(counts) == set(outcomes)
    rep = chi_square_uniformity([counts[t] for t in outcomes], len(outcomes))
    assert rep.passed, rep.as_dict()


def test_pinned_tilt_still_uniform():
    outcomes = list(enumerate_partitions(5))
    counts = Counter()
    for s in range(300 * len(outcomes)):
        p = sample_partition(5, rng=batch_rng(55, s), tilt=0.5)
        counts[tuple(p.parts())] += 1
    assert set(counts) == set(outcomes)
    rep = chi_square_uniformity([counts[t] for t in outcomes], len(outcomes))
    assert rep.passed, rep.as_dict()


def test_samples_always_valid():
    for s in range(60):
        p = sample_partition(23, rng=batch_rng(23, s))
        assert sum(p.parts()) == 23
        d = sample_distinct_partition(23, rng=batch_rng(24, s))
        assert sum(d.parts()) == 23 and d.is_distinct()


def test_determinism():
    a = sample_partition(30, seed=5).parts()
    b = sample_partition(30, seed=5).parts()
    assert a == b
    assert len({tuple(sample_partition(30, seed=s).parts()) for s in range(25)}) > 1
