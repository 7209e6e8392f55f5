"""Shared bookkeeping for sampler runs: the one bit draw they all make and the
one restart loop of the table samplers and the Latin cascade."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DeadStateError


@dataclass
class SamplerDiagnostics:
    """Counters accumulated over one sampling call, including restarts.

    `bits_consumed` counts uniform draws actually taken (forced decisions
    consume none).  `bit_levels`, when retained, holds the 0/1 digit planes
    of the returned table, least significant first.
    """

    bits_consumed: int = 0
    restarts: int = 0
    dead_states: int = 0
    levels: int = 0
    bit_levels: list | None = None
    failure_site: tuple | None = None

    def as_dict(self) -> dict:
        out = {
            "bits_consumed": self.bits_consumed,
            "restarts": self.restarts,
            "dead_states": self.dead_states,
        }
        if self.levels:
            out["levels"] = self.levels
        if self.bit_levels is not None:
            out["bit_levels"] = [lvl.tolist() for lvl in self.bit_levels]
        if self.failure_site is not None:
            out["failure_site"] = list(self.failure_site)
        return out


def choose_bit(w0, w1, rng, diag: SamplerDiagnostics, cell, level=None) -> int:
    """Draw the bit at `cell` from its two nonnegative candidate weights.

    The weights are exact completion counts (ints) or line weights (floats);
    only their ratio matters.  Both zero is a dead state.  One zero forces
    the other bit without touching `rng`.  Otherwise one random bit is
    counted in `diag` and bit 0 comes with probability w0 / (w0 + w1).
    """
    if w0 <= 0 and w1 <= 0:
        where = f"cell {cell}" if level is None else f"cell {cell} in level {level}"
        raise DeadStateError(f"neither bit can complete at {where}")
    if w1 <= 0:
        return 0
    if w0 <= 0:
        return 1
    diag.bits_consumed += 1
    return 0 if rng.random() <= w0 / (w0 + w1) else 1


def run_with_restarts(attempt, max_restarts: int, diag: SamplerDiagnostics, restartable: bool):
    """Return `attempt()`, calling it again after each DeadStateError.

    A restartable sampler gets up to `max_restarts` further attempts, any
    other none.  Every dead state and every restart is counted in `diag`: an
    error that carries diagnostics was counted into them where it was raised
    (a Latin class table's scan counts into the cascade's record), a bare one
    counts one dead state here.  The last dead state is raised with `diag`
    attached.  A negative `max_restarts` raises ValueError, a float TypeError.
    """
    max_restarts = operator.index(max_restarts)
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be nonnegative, got {max_restarts}")
    budget = max_restarts if restartable else 0
    for tries in range(budget + 1):
        try:
            return attempt()
        except DeadStateError as e:
            if e.diagnostics is None:
                diag.dead_states += 1
            if tries == budget:
                raise DeadStateError(str(e), diagnostics=diag) from e
            diag.restarts += 1
