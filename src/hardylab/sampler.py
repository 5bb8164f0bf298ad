"""Finite-shot Monte Carlo stand-in for the proposed measurement runs.

Outcomes are drawn from the exact joint distribution of one commuting
context.  Randomness is counter-based and fully positional: shot ``k``
consumes the k-th 64-bit word of the Philox-4x64 stream keyed by the run
seed (lane ``k % 4`` of counter block ``k // 4``).  Sampling any shot
range therefore merges bit-for-bit with any partition of that range, so
results are reproducible and independent of scheduling.

The words are streamed in blocks of ``_BLOCK`` and only counted, never
kept, so a run of any length holds O(``_BLOCK``) memory.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import (
    Frozen,
    HardyLabError,
    NonCommutingError,
    ObservableOp,
    StateVector,
    commutator_norm,
)
from .observables import joint_outcome_table

#: Outcome cells in draw order.
CELL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Philox words drawn and counted per step of ``sample``.
_BLOCK = 2**16


class RunConfig(Frozen):
    """One measurement run: a commuting context, a shot count, a seed."""

    def __init__(self, first: ObservableOp, second: ObservableOp, shots: int, seed: int) -> None:
        if shots < 0:
            raise HardyLabError(f"shots must be nonnegative, got {shots}")
        if shots >= 2**63:  # ``sample`` tallies the shots in int64
            raise HardyLabError(f"shots must be below 2**63, got {shots}")
        if not 0 <= seed < 2**64:
            raise HardyLabError("seed must fit in 64 unsigned bits")
        if commutator_norm(first, second):
            raise NonCommutingError(f"context ({first.name}, {second.name}) does not commute")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", seed)


class CountTable(Frozen):
    def __init__(self, counts, shots: int) -> None:  # counts: [a][b] nonnegative ints
        counts = np.array(counts, dtype=np.int64).reshape(2, 2)
        if (counts < 0).any() or int(counts.sum()) != shots:
            raise HardyLabError("counts must be nonnegative and sum to shots")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

    def to_jsonable(self) -> dict:
        return {"shots": self.shots, "counts": self.counts.tolist()}


def _word_edges(flat) -> list[tuple[int, np.uint64]]:
    """The cell edges some shot word can reach, as ``(index, cut)`` pairs.

    Shot word ``w`` gives the uniform ``u = (w >> 11) * 2**-53``, which is
    exact, so for the edge ``b`` after cell ``i`` of the running sum of
    ``flat``, ``u >= b`` iff ``w >> 11 >= ceil(b * 2**53)`` iff
    ``w >= cut = ceil(b * 2**53) << 11``.  The sum is exact for Fractions
    and rounds as float addition does for floats.  A cut of ``2**53 << 11``
    or more is never reached, and neither is any edge from the last
    nonzero cell on: that cell takes the top end however the sum rounds,
    so a cell of probability zero never fires.
    """
    last = max(i for i, p in enumerate(flat) if p)
    cuts = [math.ceil(b * 2**53) for b in accumulate(flat[:last])]
    return [(i, np.uint64(t << 11)) for i, t in enumerate(cuts) if t < 2**53]


def exact_context_probabilities(
    state: StateVector, cfg: RunConfig
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The exact 2x2 distribution the run samples from."""
    return joint_outcome_table(cfg.first, cfg.second, state)


def sample(state: StateVector, cfg: RunConfig, first_shot: int = 0) -> CountTable:
    """Draw ``cfg.shots`` outcomes of the context from the exact distribution.

    ``first_shot`` selects the substream position, letting disjoint shot
    ranges of one logical run be sampled separately and merged; identical
    ``(state, cfg)`` always reproduces identical counts bit-for-bit.
    Cells of exact probability zero can never accumulate counts.

    The cell edges are the exact running sums of the distribution.  The
    words are drawn ``_BLOCK`` at a time from one Philox stream, and
    each block only counts how many words reach each cell edge
    (``u >= b`` iff ``w >= ceil(b * 2**53) * 2**11``); memory stays
    O(``_BLOCK``) whatever ``cfg.shots`` is.
    """
    probs = exact_context_probabilities(state, cfg)
    edges = _word_edges([probs[a][b] for a, b in CELL_ORDER])
    above = np.array([cfg.shots, 0, 0, 0, 0])  # above[i + 1]: shots past edge i
    bitgen = np.random.Philox(key=cfg.seed, counter=[first_shot // 4, 0, 0, 0])
    bitgen.random_raw(first_shot % 4)
    for done in range(0, cfg.shots, _BLOCK):
        words = bitgen.random_raw(min(_BLOCK, cfg.shots - done))
        for i, cut in edges:
            above[i + 1] += np.count_nonzero(words >= cut)
    return CountTable(-np.diff(above), cfg.shots)


class CellDeviation(NamedTuple):
    outcome: tuple[int, int]
    count: int
    frequency: float
    exact: float
    deviation: float
    std_error: float
    z_score: float | None  # None when the exact probability is 0 or 1

    def to_jsonable(self) -> dict:
        return {
            "outcome": list(self.outcome),
            "count": self.count,
            "frequency": self.frequency,
            "exact": self.exact,
            "deviation": self.deviation,
            "std_error": self.std_error,
            "z_score": self.z_score,
        }


class DeviationReport(NamedTuple):
    cells: tuple[CellDeviation, ...]
    max_abs_z: float
    impossible_violations: tuple[tuple[int, int], ...]

    def to_jsonable(self) -> dict:
        return {
            "cells": [c.to_jsonable() for c in self.cells],
            "max_abs_z": self.max_abs_z,
            "impossible_violations": [list(v) for v in self.impossible_violations],
        }


def compare_frequencies(counts: CountTable, exact) -> DeviationReport:
    """Per-cell deviation, binomial standard error, and z-scores.

    A nonzero count in a cell whose exact probability is zero is flagged
    as an impossible-event violation rather than given an infinite z.
    ``exact`` is any 2x2 grid of numbers; the statistics are floats.
    """
    if counts.shots <= 0:
        raise HardyLabError("compare_frequencies requires a positive shot count")
    exact = np.asarray(exact, dtype=float).reshape(2, 2)
    n = counts.shots
    cells = []
    violations = []
    max_z = 0.0
    for a, b in CELL_ORDER:
        c = int(counts.counts[a][b])
        p = float(exact[a][b])
        freq = c / n
        dev = freq - p
        se = math.sqrt(p * (1.0 - p) / n)
        if se > 0:
            z = dev / se
            max_z = max(max_z, abs(z))
        else:
            z = None
            if c != (0 if p == 0.0 else n):
                violations.append((a, b))
        cells.append(CellDeviation((a, b), c, freq, p, dev, se, z))
    return DeviationReport(tuple(cells), max_z, tuple(violations))
