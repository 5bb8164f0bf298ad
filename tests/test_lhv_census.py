"""The census: every small table decided, each verdict held to Fine's condition.

Every table whose least denominator is 2, and every no-signalling table
whose least denominator is 2, 3 or 4, goes through ``feasibility`` as an
``ExactTable``.  Each certificate must pass both the package's validator
and the Fraction reference in ``oracle.py``, and the verdict must be
Fine's: a table has a local model iff it is no-signalling and meets all 8
CHSH inequalities (A. Fine, PRL 48, 291 (1982)), here checked in ints.
The counts of each verdict and witness kind are pinned, and so is a
sha256 of every feasible certificate's model, one line per model in
table order: a change to how a model is glued changes it.
"""

import hashlib
import math
from collections import Counter
from itertools import product

import pytest

from hardylab.lhv import (
    _MARGINAL_DIFFERENCES, ExactTable, _signalling_witness, _validate_exact, feasibility,
)

import oracle
from oracle import compositions


def all_tables(den: int):
    """The cells of every table whose least denominator is ``den``."""
    for contexts in product(compositions(den), repeat=4):
        ints = [n for context in contexts for n in context]
        if math.gcd(den, *ints) == 1:
            yield ints


def no_signalling_tables(den: int):
    """The cells of every no-signalling table whose least denominator is
    ``den``, built from the four marginals and each context's joint cell."""
    for d1, d2, u1, u2 in product(range(den + 1), repeat=4):
        pairs = ((d1, d2), (d1, u2), (u1, d2), (u1, u2))  # CONTEXT_KEYS order
        joints = [range(max(0, x + y - den), min(x, y) + 1) for x, y in pairs]
        for js in product(*joints):
            ints = [n for (x, y), j in zip(pairs, js) for n in (den - x - y + j, y - j, x - j, j)]
            if math.gcd(den, *ints) == 1:
                yield ints


def fine(ints: list[int], den: int) -> bool:
    """Fine's condition on a table's cells over ``den``, in ints."""
    contexts = [ints[i : i + 4] for i in range(0, 16, 4)]
    first = [n10 + n11 for _, _, n10, n11 in contexts]  # d1, d1, u1, u1 = 1
    second = [n01 + n11 for _, n01, _, n11 in contexts]  # d2, u2, d2, u2 = 1
    if first[0::2] != first[1::2] or second[:2] != second[2:]:  # a marginal signals
        return False
    correlators = [n00 - n01 - n10 + n11 for n00, n01, n10, n11 in contexts]  # times den
    return all(abs(sum(correlators) - 2 * e) <= 2 * den for e in correlators)


@pytest.mark.parametrize(
    "tables, den, kinds, models",
    [
        (all_tables, 2,
         {"feasible": 112, "chsh-facet": 7, "deduction-chain": 837, "no-signalling": 8788},
         "47a12762d9cc9097a270fbe54b889733b23d390dd55f21ec00fcec39744e0c67"),
        (no_signalling_tables, 2, {"feasible": 112, "chsh-facet": 7, "deduction-chain": 1},
         "27baf97b9e4a8bc38c5d576442b6c842d9cf04d0241dfdd8929d7690a197ad88"),
        (no_signalling_tables, 3, {"feasible": 672, "chsh-facet": 59, "deduction-chain": 5},
         "fd6810ea54ba920e572e254d6f810fc4948a66c92d7ebdf3741ee110e2f1f23c"),
        (no_signalling_tables, 4, {"feasible": 2681, "chsh-facet": 273, "deduction-chain": 15},
         "f6ed4c94a65267553a6fb7b8ec47bc95e71fb2391ad33ec99d0b69142188e08d"),
    ],
    ids=["all-den-2", "no-signalling-den-2", "no-signalling-den-3", "no-signalling-den-4"],
)
def test_every_small_table_is_decided_as_fine_says(tables, den, kinds, models):
    seen, digest = Counter(), hashlib.sha256()
    for ints in tables(den):
        exact = ExactTable(ints, den)
        cert = feasibility(exact)
        assert _validate_exact(exact, cert) and oracle.validate_certificate_reference(exact, cert)
        assert (cert.verdict == "feasible") == fine(ints, den)
        seen[cert.witness.kind if cert.witness else cert.verdict] += 1
        if cert.model is not None:
            digest.update(f"{cert.model.weights} / {cert.model.den}\n".encode())
    assert seen == kinds
    assert digest.hexdigest() == models


def test_the_signalling_choice_is_the_reference_on_every_den_2_table():
    seen = set()
    for ints in all_tables(2):
        n = ExactTable(ints, 2).n
        got = _signalling_witness(n)
        assert got == oracle.signalling_witness_reference(n)
        seen.add(None if got is None else _MARGINAL_DIFFERENCES.index(got))
    # no-signalling tables, and each of the 8 differences chosen on some table
    assert seen == {*range(8), None}
