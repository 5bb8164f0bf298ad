"""The sampler's cuts on every small distribution, held to the Fraction rule.

Every four-cell distribution on the 1/16 grid (969 of them), each of them
again scaled, unreduced, to den 48, and every four-cell distribution over
den 5, 7 and 12 goes through ``_lane_edges`` as int numerators over its
den.  The lane width and the cuts must equal those of
``oracle.lane_edges_reference``, the same rule computed on Fractions.
Den 5 and 7 lie on the grid only where one cell holds everything; den 12
lies on it where every running sum is a multiple of 3.  The number of
distributions that take each lane width is pinned.
"""

from collections import Counter
from fractions import Fraction

import pytest

from hardylab.sampler import _lane_edges

import oracle
from oracle import compositions

FAMILIES = {
    "sixteenths": [(list(c), 16) for c in compositions(16)],
    "sixteenths-over-48": [([3 * n for n in c], 48) for c in compositions(16)],
    "fifths": [(list(c), 5) for c in compositions(5)],
    "sevenths": [(list(c), 7) for c in compositions(7)],
    "twelfths": [(list(c), 12) for c in compositions(12)],
}

#: Family -> how many of its distributions take 4-bit and 64-bit lanes.
LANES = {
    "sixteenths": {4: 969},
    "sixteenths-over-48": {4: 969},
    "fifths": {4: 4, 64: 52},
    "sevenths": {4: 4, 64: 116},
    "twelfths": {4: 35, 64: 420},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cuts_equal_the_fraction_rule(family):
    lanes = Counter()
    for flat, den in FAMILIES[family]:
        bits, edges = _lane_edges(flat, den)
        assert (bits, edges) == oracle.lane_edges_reference(
            [Fraction(n, den) for n in flat]
        ), (flat, den)
        lanes[bits] += 1
    assert dict(lanes) == LANES[family]


def test_the_grid_holds_969_distributions():
    assert len(FAMILIES["sixteenths"]) == len(set(compositions(16))) == 969
