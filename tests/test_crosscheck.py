"""The exact quantum layer against the raw Kronecker products in ``oracle.py``.

Every audit, every quantum table and every sample context of both readings
is computed twice: exactly by the package and in floats from 16x16
matrices built with no package code.  They must agree to within a few
ulps, and the verdicts must be equal.  The exact expansion, Born
probability and collapse are also compared with the matrices on generated
integer states, slot orders and projectors.
"""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import core
from hardylab.observables import (
    CONTEXT_KEYS,
    Interpretation,
    audit_pair,
    context_observables,
    quantum_probability_table,
)
from hardylab.protocol import BELL_ORDER, expand_in_bell_basis, make_total_state
from hardylab.sampler import RunConfig, exact_context_probabilities

import oracle

#: float64 noise of the reference matrices stays below this
AGREE = 1e-15

PAIRS = [(i, j) for i in BELL_ORDER for j in BELL_ORDER]
READINGS = list(Interpretation)


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_audits_agree(interp):
    for i, j in PAIRS:
        exact = audit_pair(i, j, interp)
        measured = oracle.audit_values(i.value, j.value, interp.value)
        verdicts = {key: abs(value - oracle.AUDIT_TARGETS[key]) <= core.TOLERANCE
                    for key, value in measured.items()}
        for key, value in exact.measured.to_jsonable().items():
            assert abs(value - measured[key]) <= AGREE, (i, j, key)
        assert dict(exact.verdicts) == verdicts, (i, j)


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_quantum_tables_agree(interp):
    for i, j in PAIRS:
        exact = quantum_probability_table(i, j, interp)
        n, floats = oracle.cells(exact), oracle.quantum_tables(i.value, j.value, interp.value)
        for key in CONTEXT_KEYS:
            for a in (0, 1):
                for b in (0, 1):
                    assert abs(n[key, a, b] / exact.den - floats[key][a][b]) <= AGREE


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_sample_context_probabilities_agree(interp):
    state = make_total_state()
    checked = 0
    for i, j in PAIRS:
        contexts = oracle.context_matrices(i.value, j.value, interp.value)
        for key in CONTEXT_KEYS:
            cfg = RunConfig(*context_observables(key, i, j, interp), 1, 0)
            grid, den = exact_context_probabilities(state, cfg)
            floats = oracle.joint_table(*contexts[key])
            for a in (0, 1):
                for b in (0, 1):
                    assert abs(grid[a][b] / den - floats[a][b]) <= AGREE
            checked += 1
    assert checked == 64  # per reading; 128 contexts in all


# --- the exact primitives on generated integer states -------------------------

SLOT_ORDERS = list(permutations(core.CANONICAL_SLOTS))
AMPS = st.lists(st.integers(-3, 3), min_size=16, max_size=16).filter(any)


@given(
    amps=AMPS,
    order=st.sampled_from(SLOT_ORDERS),
    pair=st.sampled_from([("A", "1"), ("2", "B"), ("A", "2"), ("1", "B"), ("B", "A")]),
)
@settings(max_examples=100, deadline=None)
def test_expansion_matches_the_partial_inner_products(amps, order, pair):
    state = core.StateVector(tuple(amps), order)
    exact = expand_in_bell_basis(state, pair)
    overlaps = oracle.bell_overlaps(oracle.unit(state), pair)
    assert sum(b.weight for b in exact.branches) == 1
    for got in exact.branches:
        ref = overlaps[got.bell.value]
        assert abs(float(got.weight) - np.vdot(ref, ref).real) <= 1e-12
        assert got.empty == (np.linalg.norm(ref) <= 1e-12)
        if not got.empty:
            vector = got.sign * math.sqrt(got.weight) * oracle.unit(got.residual)
            np.testing.assert_allclose(vector, ref, atol=1e-12)


@given(
    amps=AMPS,
    order=st.sampled_from(SLOT_ORDERS),
    support=st.sampled_from([("1",), ("B",), ("A", "1"), ("2", "B"), ("1", "A"), ("1", "2", "B")]),
    ket=st.lists(st.integers(-2, 2), min_size=8, max_size=8).filter(any),
)
@settings(max_examples=100, deadline=None)
def test_born_and_collapse_match_the_projector_matrix(amps, order, support, ket):
    ket = ket[: 2 ** len(support)]
    if not any(ket):
        ket[0] = 1
    state = core.StateVector(tuple(amps), order)
    op = core.ObservableOp(core.StateVector(tuple(ket), support))
    psi, matrix = oracle.unit(state), oracle.projector(ket, support)
    p = core.born_probability(op, state)
    p_ref = oracle.born(matrix, psi)
    assert abs(float(p) - p_ref) <= 1e-12
    if p:
        q, post = core.collapse(op, state)
        assert q == p and core.born_probability(op, post) == 1
        np.testing.assert_allclose(oracle.unit(post), matrix @ psi / math.sqrt(p_ref), atol=1e-12)
    else:
        with pytest.raises(core.ZeroProbabilityError):
            core.collapse(op, state)
