import numpy as np
import pytest

from bittables.diagnostics import SamplerDiagnostics
from bittables.seeding import batch_rng


def test_same_coordinates_same_stream():
    a = batch_rng(7, 3).random(10)
    b = batch_rng(7, 3).random(10)
    assert np.array_equal(a, b)


def test_distinct_indices_decorrelate():
    draws = {tuple(batch_rng(7, t).random(4).round(12)) for t in range(50)}
    assert len(draws) == 50
    assert not np.array_equal(batch_rng(0, 1).random(4), batch_rng(1, 0).random(4))


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        batch_rng(-1, 0)
    with pytest.raises(ValueError):
        batch_rng(0, -2)
    # floats used to be truncated: batch_rng(1.5, 0) drew batch_rng(1, 0)'s stream
    for args in ((1.5, 0), (1, 0.9), (1.0, 0)):
        with pytest.raises(TypeError):
            batch_rng(*args)
    # numpy integers are integers
    a = batch_rng(np.int64(1), np.uint8(4)).random(4)
    assert np.array_equal(a, batch_rng(1, 4).random(4))


def test_diagnostics_as_dict():
    a = SamplerDiagnostics(bits_consumed=8, restarts=1, dead_states=3)
    d = a.as_dict()
    assert (d["bits_consumed"], d["restarts"], d["dead_states"]) == (8, 1, 3)
    assert "levels" not in d and "failure_site" not in d and "bit_levels" not in d
    a.levels = 4
    a.failure_site = (1, 0)
    a.bit_levels = [np.zeros((2, 2), dtype=np.int64)]
    d = a.as_dict()
    assert d["levels"] == 4 and d["failure_site"] == [1, 0]
    assert d["bit_levels"] == [[[0, 0], [0, 0]]]
