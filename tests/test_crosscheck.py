"""The exact quantum layer against the float reference layer in ``oracle.py``.

Every audit, every quantum table and every sample context of both readings
is computed twice: exactly by the package and in floats by the reference.
They must agree to within a few ulps, and the verdicts must be equal.  The
exact primitives are also compared with the float ones on generated
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

#: float64 noise of the reference layer stays below this
AGREE = 1e-15

PAIRS = [(i, j) for i in BELL_ORDER for j in BELL_ORDER]
READINGS = list(Interpretation)


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_audits_agree(interp):
    for i, j in PAIRS:
        exact = audit_pair(i, j, interp)
        measured, verdicts = oracle.audit_pair(i, j, interp)
        for key, value in exact.measured.to_jsonable().items():
            assert abs(value - measured[key]) <= AGREE, (i, j, key)
        assert dict(exact.verdicts) == verdicts, (i, j)


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_quantum_tables_agree(interp):
    for i, j in PAIRS:
        exact = quantum_probability_table(i, j, interp)
        floats = oracle.quantum_tables(i, j, interp)
        for key in CONTEXT_KEYS:
            for a in (0, 1):
                for b in (0, 1):
                    assert abs(exact.n[key, a, b] / exact.den - floats[key][a][b]) <= AGREE


@pytest.mark.parametrize("interp", READINGS, ids=lambda r: r.value)
def test_all_sample_context_probabilities_agree(interp):
    state = make_total_state()
    checked = 0
    for i, j in PAIRS:
        for key in CONTEXT_KEYS:
            cfg = RunConfig(*context_observables(key, i, j, interp), 1, 0)
            grid, den = exact_context_probabilities(state, cfg)
            floats = oracle.joint_outcome_table(
                *oracle.context_observables(key, i, j, interp), oracle.make_total_state()
            )
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
def test_expansion_matches_the_float_expansion(amps, order, pair):
    state = core.StateVector(tuple(amps), order)
    exact = expand_in_bell_basis(state, pair)
    floats = oracle.expand_in_bell_basis(oracle.as_float(state), pair)
    assert sum(b.weight for b in exact.branches) == 1
    for got, ref in zip(exact.branches, floats.branches):
        assert abs(float(got.weight) - abs(ref.coefficient) ** 2) <= 1e-12
        assert got.empty == (abs(ref.coefficient) <= 1e-12)
        if not got.empty:
            vector = got.sign * math.sqrt(got.weight) * oracle.as_float(got.residual).amps
            np.testing.assert_allclose(vector, ref.coefficient * ref.residual.amps, atol=1e-12)


@given(
    amps=AMPS,
    order=st.sampled_from(SLOT_ORDERS),
    support=st.sampled_from([("1",), ("B",), ("A", "1"), ("2", "B"), ("1", "A"), ("1", "2", "B")]),
    ket=st.lists(st.integers(-2, 2), min_size=8, max_size=8).filter(any),
)
@settings(max_examples=100, deadline=None)
def test_born_and_collapse_match_the_float_layer(amps, order, support, ket):
    ket = ket[: 2 ** len(support)]
    if not any(ket):
        ket[0] = 1
    state = core.StateVector(tuple(amps), order)
    op = core.ObservableOp(core.StateVector(tuple(ket), support))
    float_state = oracle.as_float(state)
    float_op = oracle.ObservableOp.projector_onto(oracle.as_float(op.target), within=order)
    p = core.born_probability(op, state)
    assert abs(float(p) - oracle.born_probability(float_op, float_state)) <= 1e-12
    if p:
        q, post = core.collapse(op, state)
        q_ref, post_ref = oracle.collapse(float_op, float_state)
        assert q == p and abs(float(q) - q_ref) <= 1e-12
        np.testing.assert_allclose(oracle.as_float(post).amps, post_ref.amps, atol=1e-12)
    else:
        with pytest.raises(core.ZeroProbabilityError):
            core.collapse(op, state)
