"""Deterministic seed derivation for batch sampling."""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["batch_rng"]


def batch_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for element `index` of a batch.

    (master_seed, index) is mixed through numpy's SeedSequence, a stable and
    documented entropy hash, so each element's stream depends only on the
    pair.  Batches can fan out across workers and still reproduce
    byte-identically when emitted in index order.  Both arguments must be
    integers; a float raises TypeError instead of being truncated.
    """
    master_seed, index = operator.index(master_seed), operator.index(index)
    if master_seed < 0 or index < 0:
        raise ValueError("seed and index must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((master_seed, index)))
