import numpy as np
import pytest

from bittables import binary_sampler, latin
from bittables.binary_sampler import BinaryStrategy
from bittables.diagnostics import SamplerDiagnostics, run_with_restarts
from bittables.errors import ContradictionError, DeadStateError, OracleLimitError
from bittables.latin import (
    LatinSquare,
    RestartPolicy,
    enumerate_latin_squares,
    level_class_targets,
    sample_latin_square,
)
from bittables.seeding import batch_rng
from bittables.table import binary_feasible

# the worked order-5 square whose bits drive the cascade example
SQUARE5 = (
    (5, 1, 2, 3, 4),
    (4, 5, 1, 2, 3),
    (1, 2, 3, 4, 5),
    (3, 4, 5, 1, 2),
    (2, 3, 4, 5, 1),
)

# its display as odd/even symbol indicators (symbol mod 2)
ODD5 = np.array(
    [
        [1, 1, 0, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 0, 1, 0, 1],
        [1, 0, 1, 1, 0],
        [0, 1, 0, 1, 1],
    ]
)


def test_square_container():
    sq = LatinSquare(SQUARE5)
    assert sq.n == 5 and sq.is_valid()
    assert not LatinSquare(((1, 2), (1, 2))).is_valid()
    assert not LatinSquare(((1,), (1,))).is_valid()
    assert sq.to_array()[0, 0] == 5


def test_level_targets_count_values_directly():
    for n in range(1, 20):
        for i in range((n - 1).bit_length() + 1):
            for b in range(1 << i):
                want = sum(
                    1 for v in range(n) if v % (1 << i) == b and (v >> i) & 1
                )
                assert level_class_targets(n, i, b) == want
    with pytest.raises(ValueError):
        level_class_targets(6, 1, 2)


def test_level_targets_total_identity():
    # summed over residues, the targets count all values with bit i set
    for n in range(1, 40):
        for i in range(6):
            total = sum(level_class_targets(n, i, b) for b in range(1 << i))
            period = 1 << (i + 1)
            want = (n // period) * (1 << i) + max(0, n % period - (1 << i))
            assert total == want


def _check_class_tables(sq):
    """Split the square's digit planes into the cascade's class tables.

    Plane i holds bit i of (symbol - 1).  Within residue class b modulo
    2**i, its cells form a 0/1 table whose lines all sum to the target the
    cascade draws for that class; the planes reassemble the square.
    Returns the planes.
    """
    a = sq.to_array() - 1
    planes = [(a >> i) & 1 for i in range(max(1, (sq.n - 1).bit_length()))]
    for i, plane in enumerate(planes):
        for b in range(1 << i):
            table = plane * (a % (1 << i) == b)
            k = level_class_targets(sq.n, i, b)
            assert (table.sum(axis=0) == k).all() and (table.sum(axis=1) == k).all(), (i, b)
    assert np.array_equal(sum(plane << i for i, plane in enumerate(planes)) + 1, sq.to_array())
    return planes


def test_parity_planes_of_worked_square():
    # the level-0 plane follows value parity (symbol minus one), so it is
    # the complement of the odd-symbol display and its line sums are
    # floor(n/2) rather than ceil
    planes = _check_class_tables(LatinSquare(SQUARE5))
    assert len(planes) == 3
    assert np.array_equal(planes[0], 1 - ODD5)
    assert (planes[0].sum(axis=0) == 2).all() and (planes[0].sum(axis=1) == 2).all()


def test_parity_round_trip_all_order_4():
    squares = enumerate_latin_squares(4)
    assert len(squares) == 576
    for sq in squares:
        _check_class_tables(sq)


def test_samples_are_valid_squares():
    for n in (1, 2, 3, 4, 5, 6):
        for s in range(6):
            sq, diag = sample_latin_square(n, rng=batch_rng(100 + n, s))
            assert sq.is_valid(), (n, s)
            assert diag.levels == (n - 1).bit_length()


def test_order_3_coverage():
    want = {sq.values for sq in enumerate_latin_squares(3)}
    seen = set()
    for s in range(1500):
        sq, _ = sample_latin_square(3, rng=batch_rng(55, s))
        seen.add(sq.values)
    assert seen == want


def test_determinism():
    a, _ = sample_latin_square(6, seed=31)
    b, _ = sample_latin_square(6, seed=31)
    assert a.values == b.values
    assert len({sample_latin_square(4, seed=s)[0].values for s in range(25)}) > 1


def test_exact_cascade_matches_strategy():
    strategy = BinaryStrategy(kind="exact")
    for s in range(5):
        sq, _ = sample_latin_square(4, strategy, rng=batch_rng(63, s))
        assert sq.is_valid()


def test_policy_validation_and_abort():
    with pytest.raises(ValueError):
        RestartPolicy(scope="sometimes")
    with pytest.raises(ValueError):
        RestartPolicy(budget=-1)
    # a float budget is refused, not truncated; a numpy integer is kept as the int
    with pytest.raises(TypeError):
        RestartPolicy("retry_level", 0.5)
    policy = RestartPolicy("restart_all", np.int64(3))
    assert policy == RestartPolicy("restart_all", 3) and type(policy.budget) is int
    sq, _ = sample_latin_square(5, policy=policy, rng=batch_rng(9, 2))
    assert sq.is_valid()
    with pytest.raises(ValueError):
        sample_latin_square(0)
    # a numpy integer order draws like the int; a float order is refused
    a, da = sample_latin_square(np.int64(6), rng=batch_rng(9, 1))
    b, db = sample_latin_square(6, rng=batch_rng(9, 1))
    assert a == b and da.as_dict() == db.as_dict()
    with pytest.raises(TypeError):
        sample_latin_square(6.0, seed=1)
    # abort still succeeds when no dead state occurs
    sq, diag = sample_latin_square(4, policy=RestartPolicy(scope="abort"), seed=2)
    assert sq.is_valid()


def test_dead_state_surfaces_failure_site():
    # dead ends are rare under constraint propagation; this stream is a
    # known order-7 casualty, dying in the second-level odd class
    with pytest.raises(DeadStateError, match="^cascade dead at level 1, residue 1$") as err:
        sample_latin_square(7, policy=RestartPolicy(scope="abort"), rng=batch_rng(71, 455))
    diag = err.value.diagnostics
    assert diag.as_dict() == {
        "bits_consumed": 46, "restarts": 0, "dead_states": 1, "levels": 3, "failure_site": [1, 1],
    }
    # the raised error wraps the cascade's error, which wraps the class table's
    cascade = err.value.__cause__
    assert str(cascade) == str(err.value) and cascade.__cause__ is not None
    # an order-10 casualty dies in the third-level class of residue 0
    with pytest.raises(DeadStateError, match="^cascade dead at level 2, residue 0$") as err10:
        sample_latin_square(10, policy=RestartPolicy("restart_all", 0), rng=batch_rng(71, 77))
    assert err10.value.diagnostics.as_dict() == {
        "bits_consumed": 122, "restarts": 0, "dead_states": 1, "levels": 4, "failure_site": [2, 0],
    }


def test_run_with_restarts_counts_each_dead_state_once():
    # an error carrying diagnostics was counted into them by the scan that
    # raised it; a bare error counts one dead state in the loop
    diag = SamplerDiagnostics()
    calls = []

    def attempt():
        calls.append(None)
        if len(calls) == 1:
            diag.bits_consumed += 5
            diag.dead_states += 1
            raise DeadStateError("carried", diagnostics=diag)
        raise DeadStateError("bare")

    with pytest.raises(DeadStateError, match="^bare$") as err:
        run_with_restarts(attempt, 1, diag, True)
    assert err.value.diagnostics is diag
    assert diag.as_dict() == {"bits_consumed": 5, "restarts": 1, "dead_states": 2}


def test_cascade_never_runs_the_max_flow(monkeypatch):
    # class tables are regular, so the cascade shows them feasible without
    # the max-flow test of the 0/1 front door, and draws the same squares
    want = {n: sample_latin_square(n, rng=batch_rng(5, n)) for n in (4, 8, 16)}

    def refuse(*args, **kwargs):
        raise RuntimeError("the cascade ran the max-flow test")

    monkeypatch.setattr(binary_sampler, "binary_feasible", refuse)
    for n, (sq, diag) in want.items():
        got, got_diag = sample_latin_square(n, rng=batch_rng(5, n))
        assert got == sq and got_diag.as_dict() == diag.as_dict()
    # a class open in fewer cells per line than its target is refused, not drawn
    monkeypatch.setattr(latin, "level_class_targets", lambda n, i, b: n + 1)
    with pytest.raises(ContradictionError, match="^residue class 0 at level 0 is not regular$"):
        sample_latin_square(4, seed=0)


def test_regular_class_masks_are_feasible():
    # König: a k-regular bipartite graph is a union of k perfect matchings,
    # so every margin t <= k fits a mask open in k cells of every line
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        # k disjoint permutation matrices: the shifts of one Latin square
        base = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        grid = rng.permutation(n)[base][rng.permutation(n)][:, rng.permutation(n)]
        open_cells = grid < k
        assert (open_cells.sum(axis=0) == k).all() and (open_cells.sum(axis=1) == k).all()
        for t in range(1, k + 1):
            assert binary_feasible([t] * n, [t] * n, ~open_cells), (n, k, t)


def test_exact_cascade_keeps_the_oracle_limit():
    # the exact class tables still count on the oracle, which refuses 9x9
    with pytest.raises(OracleLimitError, match="^binary instance 9x9 exceeds limit 8$"):
        sample_latin_square(9, BinaryStrategy(kind="exact"), seed=0)


def test_retry_level_recovers_from_dead_state():
    # same stream as above: the default policy retries the failing class
    # table and finishes the square
    sq, diag = sample_latin_square(7, rng=batch_rng(71, 455))
    assert sq.is_valid()
    assert diag.dead_states >= 1 and diag.restarts >= 1
    # an order-10 casualty recovers the same way
    sq10, diag10 = sample_latin_square(10, rng=batch_rng(71, 77))
    assert sq10.is_valid()
    assert diag10.dead_states >= 1
    # on the order-7 stream, one full restart of the cascade finishes it
    for policy in (RestartPolicy("restart_all", 1), RestartPolicy("retry_level", 0)):
        sq, diag = sample_latin_square(7, policy=policy, rng=batch_rng(71, 455))
        assert sq.is_valid()
        assert diag.as_dict() == {
            "bits_consumed": 96, "restarts": 1, "dead_states": 1, "levels": 3, "failure_site": [1, 1],
        }
