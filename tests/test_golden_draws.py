"""Fixed-seed draws of the binary, Latin and exact samplers.

`data/binary_golden.json` holds, per case, the sampler's inputs and the
entries (or square) and diagnostics it returned when the corpus was
recorded.  Every draw must reproduce exactly: a change to the decision code
that moves one random call or one bit count shows up here.  The integer
approx and partition draws have their own corpora next to it.
"""

import json
from pathlib import Path

import numpy as np

from bittables import (
    BinaryStrategy,
    BitSamplerStrategy,
    RestartPolicy,
    batch_rng,
    sample_binary_table,
    sample_contingency_table,
    sample_latin_square,
)

GOLDEN = Path(__file__).parent / "data" / "binary_golden.json"


def _zero_mask(m, n, cells):
    if not cells:
        return None
    zero = np.zeros((m, n), dtype=bool)
    for i, j in cells:
        zero[i, j] = True
    return zero


def draw(case):
    """Replay one corpus case; returns (object as lists, diagnostics dict)."""
    rng = batch_rng(*case["seed"])
    if case["sampler"] == "latin":
        policy = RestartPolicy(scope=case["policy"]) if "policy" in case else None
        square, diag = sample_latin_square(case["n"], policy=policy, rng=rng)
        return [list(row) for row in square.values], diag.as_dict()
    zero = _zero_mask(len(case["rows"]), len(case["cols"]), case["zero"])
    if case["sampler"] == "binary":
        strategy = BinaryStrategy(kind=case["kind"], refresh=case.get("refresh", True))
        e, diag = sample_binary_table(case["rows"], case["cols"], zero, strategy, rng=rng)
    else:
        strategy = BitSamplerStrategy(kind=case["kind"])
        e, diag = sample_contingency_table(case["rows"], case["cols"], zero, strategy, rng=rng,
                                           scan=case.get("scan", "column"))
    return e.tolist(), diag.as_dict()


def _check(cases):
    assert cases
    for case in cases:
        got, diag = draw(case)
        assert got == case["out"], (case["name"], case["seed"])
        assert diag == case["diagnostics"], (case["name"], case["seed"])


def test_binary_latin_and_exact_draws_match_golden():
    _check(json.loads(GOLDEN.read_text()))


def test_static_param_draws_match_golden():
    """`refresh=False` takes its frozen parameters from the initial instance."""
    _check([c for c in json.loads(GOLDEN.read_text()) if c.get("refresh") is False])
