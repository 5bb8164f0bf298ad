"""Finite-shot Monte Carlo stand-in for the proposed measurement runs.

Outcomes are drawn from the exact joint distribution of one commuting
context.  Randomness is counter-based and fully positional.  Word ``j``
of the Philox-4x64 stream keyed by the run seed is lane ``j % 4`` of
counter block ``j // 4``, and shot ``k`` reads nibble ``k % 16`` of word
``k // 16``, nibble ``j`` of word ``w`` being ``(w >> 4*j) & 15``
whatever the host's byte order.  Every distribution of the lab has cells
with denominators dividing 16, so every cell edge is a multiple of 1/16
and one nibble decides a shot exactly.  A hand-built state whose edges
leave that grid is sampled at one whole word per shot instead.  Sampling
any shot range therefore merges bit-for-bit with any partition of that
range, so results are reproducible and independent of scheduling.

The words are streamed in blocks of ``_BLOCK_WORDS`` and their shots only
counted, never kept, so a run of any length holds O(``_BLOCK_WORDS``)
memory.
"""

from __future__ import annotations

import math
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

#: Philox words drawn and counted per step of ``sample`` (64 KiB).
_BLOCK_WORDS = 2**13


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


def _lane_edges(flat: list[int], den: int) -> tuple[int, list[tuple[int, int]]]:
    """The lane width in bits and the reachable cell edges, as ``(index, cut)``.

    ``flat`` holds the cells' int numerators over ``den``.  A shot lies past
    edge ``i``, the running sum ``b`` of ``flat`` up to cell ``i``, iff its
    lane is at least ``cut``.  When ``den`` divides every ``16 * b`` a lane
    is one nibble and the cut is ``16 * b // den``.  Otherwise a lane is a
    whole word ``w`` with the exact uniform ``(w >> 11) * 2**-53``, and the
    cut is ``ceil(b * 2**53 / den) << 11``, in ints.  A cut past the largest
    lane is never reached, and neither is any edge from the last nonzero
    cell on, so a cell of probability zero never fires.
    """
    last = max(i for i, n in enumerate(flat) if n)
    sums = list(accumulate(flat[:last]))
    if all(16 * b % den == 0 for b in sums):
        return 4, [(i, 16 * b // den) for i, b in enumerate(sums)]
    cuts = [-(-b * 2**53 // den) for b in sums]
    return 64, [(i, t << 11) for i, t in enumerate(cuts) if t < 2**53]


def exact_context_probabilities(state: StateVector, cfg: RunConfig):
    """The exact 2x2 distribution the run samples from, as
    :func:`~hardylab.observables.joint_outcome_table`'s ``(grid, den)``."""
    return joint_outcome_table(cfg.first, cfg.second, state)


def sample(state: StateVector, cfg: RunConfig, first_shot: int = 0) -> CountTable:
    """Draw ``cfg.shots`` outcomes of the context from the exact distribution.

    ``first_shot`` selects the substream position, letting disjoint shot
    ranges of one logical run be sampled separately and merged; identical
    ``(state, cfg)`` always reproduces identical counts bit-for-bit.  It
    must fit in 64 unsigned bits.  Cells of exact probability zero can
    never accumulate counts.

    The cell edges ``b`` are the exact running sums of the distribution,
    and :func:`_lane_edges` computes their cuts in ints.  Shot ``k`` reads
    nibble ``k % 16`` of Philox word ``k // 16`` and lies past edge ``b``
    iff its nibble is at least ``16 * b``.  In the word's little-endian
    bytes, an even shot reads a byte's low nibble and an odd shot its high
    one, so the odd shots compare whole bytes with ``256 * b`` and the even
    ones compare ``byte & 15`` with ``16 * b``.  A distribution with an edge
    off the 1/16 grid gives each shot a whole word instead: shot ``k`` reads
    word ``k`` and lies past ``b`` iff the word is at least
    ``ceil(b * 2**53) * 2**11``.  Each distinct nonzero cut is counted once;
    every shot passes a cut of 0.  The words are drawn ``_BLOCK_WORDS`` at a
    time from one Philox stream, and each block only counts how many shots
    reach each cut; memory stays O(``_BLOCK_WORDS``) whatever ``cfg.shots`` is.
    """
    if not 0 <= first_shot < 2**64:
        raise HardyLabError(f"first_shot must fit in 64 unsigned bits, got {first_shot}")
    grid, den = exact_context_probabilities(state, cfg)
    bits, edges = _lane_edges([grid[a][b] for a, b in CELL_ORDER], den)
    per_word = 64 // bits
    word, skip = divmod(first_shot, per_word)
    passed = dict.fromkeys({cut for _, cut in edges if cut}, 0)

    def count(lanes, scale):
        for cut in passed:
            passed[cut] += np.count_nonzero(lanes >= lanes.dtype.type(cut * scale))

    bitgen = np.random.Philox(key=cfg.seed, counter=[word // 4, 0, 0, 0])
    bitgen.random_raw(word % 4)
    end = skip + cfg.shots  # lanes from the first lane of ``word``
    for done in range(0, end, _BLOCK_WORDS * per_word):
        size = min(_BLOCK_WORDS * per_word, end - done)
        words = bitgen.random_raw(-(-size // per_word))
        first = max(skip - done, 0)
        if bits == 64:
            count(words[first:], 1)
        else:
            data = words.astype("<u8", copy=False).view(np.uint8)
            count(data[first // 2 : size // 2], 16)  # shot 2m + 1: the high nibble of byte m
            data &= 15  # in place, so a block holds one copy of its words
            count(data[(first + 1) // 2 : (size + 1) // 2], 1)  # shot 2m: the low nibble
    above = [cfg.shots, 0, 0, 0, 0]  # above[i + 1]: shots past edge i
    for i, cut in edges:
        above[i + 1] = passed[cut] if cut else cfg.shots
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
