from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.core import CANONICAL_SLOTS, DimensionMismatchError, HardyLabError
from hardylab.core import tensor as exact_tensor
from hardylab.protocol import (
    BELL_ORDER,
    BellIndex,
    bell_state,
    expand_in_bell_basis,
    load_reference_table,
    make_ancillas,
    make_singlet,
    make_total_state,
    verify_expansion,
)

import oracle
from oracle import (
    PAULI_X,
    PAULI_Z,
    ObservableOp,
    StateVector,
    as_float,
    exact_ket,
    expectation,
    inner,
    ket,
    reconstruct,
    reduced_projector_fidelity,
)

TOL = 1e-12
SQRT2 = np.sqrt(2.0)


def random_state(seed: int, slots) -> StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** len(slots)) + 1j * rng.normal(size=2 ** len(slots))
    return StateVector(v / np.linalg.norm(v), tuple(slots))


class TestStates:
    def test_singlet_amplitudes(self):
        assert make_singlet().amps == (0, 1, -1, 0)
        s = as_float(make_singlet())
        assert s.slots == ("1", "2")
        np.testing.assert_allclose(
            s.amps, [0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0], atol=TOL
        )
        assert abs(s.norm() - 1.0) <= TOL

    def test_singlet_never_shows_parallel_spins(self):
        s = as_float(make_singlet())
        both_up = ObservableOp.projector_onto(ket("++", ("1", "2")))
        post = both_up.matrix @ s.amps
        assert np.abs(post).max() <= TOL

    def test_ancilla_states(self):
        a, b = map(as_float, make_ancillas())
        assert abs(inner(a, a) - 1.0) <= TOL
        assert abs(inner(b, b) - 1.0) <= TOL
        z = ObservableOp.single_qubit(PAULI_Z, "A", name="Z")
        x = ObservableOp.single_qubit(PAULI_X, "B", name="X")
        assert expectation(z, a) == pytest.approx(1.0, abs=TOL)
        assert expectation(x, b) == pytest.approx(1.0, abs=TOL)

    def test_total_state_structure(self):
        psi = as_float(make_total_state())
        assert psi.slots == CANONICAL_SLOTS
        np.testing.assert_allclose(psi.amps, oracle.total_state_vec(), atol=TOL)
        nonzero = np.abs(psi.amps) > TOL
        assert nonzero.sum() == 4
        np.testing.assert_allclose(np.abs(psi.amps[nonzero]), 0.5, atol=TOL)
        # ancilla A is untouched by the construction
        assert reduced_projector_fidelity(psi, "A", ket("+", ("A",))) == pytest.approx(
            1.0, abs=TOL
        )


class TestBellStates:
    def test_printed_sign_conventions(self):
        psim = as_float(bell_state(BellIndex.PSI_MINUS, ("1", "2")))
        np.testing.assert_allclose(psim.amps, [0, 1 / SQRT2, -1 / SQRT2, 0], atol=TOL)
        phip = as_float(bell_state(BellIndex.PHI_PLUS, ("1", "2")))
        np.testing.assert_allclose(phip.amps, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=TOL)

    def test_orthonormal_basis(self):
        states = [as_float(bell_state(i, ("A", "1"))) for i in BELL_ORDER]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert inner(a, b) == pytest.approx(float(i == j), abs=TOL)


class TestExpansion:
    def test_alice_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("A", "1"))
        assert exp.residual_slots == ("2", "B")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert abs(abs(br.coefficient) - 0.5) <= TOL
        residual = as_float(br.residual)
        assert reduced_projector_fidelity(residual, "2", ket("+", ("2",))) == pytest.approx(1.0, abs=TOL)
        b_state = as_float(make_ancillas()[1])
        assert reduced_projector_fidelity(residual, "B", b_state) == pytest.approx(1.0, abs=TOL)

    def test_teleportation_pattern_on_qubit_2(self):
        # psi branches leave qubit 2 spin-up, phi branches spin-down
        exp = expand_in_bell_basis(make_total_state(), ("A", "1"))
        for index, target in [
            (BellIndex.PSI_MINUS, "+"),
            (BellIndex.PSI_PLUS, "+"),
            (BellIndex.PHI_MINUS, "-"),
            (BellIndex.PHI_PLUS, "-"),
        ]:
            br = exp.branch(index)
            fid = reduced_projector_fidelity(as_float(br.residual), "2", ket(target, ("2",)))
            assert fid == pytest.approx(1.0, abs=TOL)

    def test_bob_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("2", "B"))
        assert exp.residual_slots == ("A", "1")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert abs(abs(br.coefficient) - 0.5) <= TOL
        xplus = StateVector(np.array([1, 1], dtype=complex) / SQRT2, ("1",))
        assert reduced_projector_fidelity(as_float(br.residual), "1", xplus) == pytest.approx(1.0, abs=TOL)

    def test_uniform_branch_weights(self):
        for pair in (("A", "1"), ("2", "B")):
            exp = expand_in_bell_basis(make_total_state(), pair)
            for br in exp.branches:
                assert abs(abs(br.coefficient) ** 2 - 0.25) <= TOL
                assert br.weight == Fraction(1, 4)

    def test_split_convention_matches_the_float_expansion(self):
        # each residual's first largest-magnitude amplitude is positive, and
        # the coefficient carries the sign, as in the float layer
        for pair in (("A", "1"), ("2", "B")):
            exact = expand_in_bell_basis(make_total_state(), pair)
            floats = oracle.expand_in_bell_basis(oracle.make_total_state(), pair)
            for got, ref in zip(exact.branches, floats.branches):
                assert max(got.residual.amps, key=abs) > 0
                assert got.coefficient == pytest.approx(ref.coefficient.real, abs=TOL)
                np.testing.assert_allclose(as_float(got.residual).amps, ref.residual.amps, atol=TOL)
        psim = expand_in_bell_basis(make_total_state(), ("A", "1")).branch(BellIndex.PSI_MINUS)
        assert (psim.sign, psim.residual.amps) == (-1, (1, 1, 0, 0))

    def test_bell_state_expanded_on_its_own_slots(self):
        for index in BELL_ORDER:
            exp = expand_in_bell_basis(bell_state(index, ("1", "2")), ("1", "2"))
            br = exp.branch(index)
            assert abs(abs(br.coefficient) - 1.0) <= TOL
            assert br.residual is None
            others = [b for b in exp.branches if b.bell is not index]
            assert all(b.empty for b in others)

    def test_missing_slots_rejected(self):
        with pytest.raises(DimensionMismatchError):
            expand_in_bell_basis(make_singlet(), ("A", "1"))

    def test_product_state_empty_branches(self):
        # a fully product state across Alice's pair overlaps only phi branches
        state = exact_tensor(
            exact_tensor(exact_ket("++", ("A", "1")), exact_ket("-", ("2",))), exact_ket("+", ("B",))
        )
        exp = expand_in_bell_basis(state, ("A", "1"))
        assert exp.branch(BellIndex.PSI_MINUS).empty
        assert exp.branch(BellIndex.PSI_PLUS).empty
        assert not exp.branch(BellIndex.PHI_PLUS).empty


class TestReconstruction:
    def test_total_state_round_trips(self):
        psi = oracle.make_total_state()
        for pair in (("A", "1"), ("2", "B")):
            exp = oracle.expand_in_bell_basis(psi, pair)
            np.testing.assert_allclose(reconstruct(exp).amps, psi.amps, atol=TOL)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_states_round_trip(self, seed):
        s = random_state(seed, CANONICAL_SLOTS)
        for pair in (("A", "1"), ("2", "B"), ("A", "2"), ("1", "B")):
            exp = oracle.expand_in_bell_basis(s, pair)
            np.testing.assert_allclose(reconstruct(exp).amps, s.amps, atol=1e-9)


class TestReferenceComparison:
    def test_alice_pair_matches_exactly(self):
        report = verify_expansion("A1")
        assert report.all_exact
        assert report.all_phase
        for comparison in report.comparisons:
            assert comparison.phase == pytest.approx(1.0 + 0.0j, abs=TOL)

    def test_bob_pair_matches_up_to_branch_phases(self):
        report = verify_expansion("2B")
        assert report.all_phase
        assert not report.all_exact
        phases = {c.bell: c.phase for c in report.comparisons}
        # computed before the build: only the first branch keeps the
        # reference sign, the other three flip
        assert phases[BellIndex.PSI_MINUS] == pytest.approx(1.0 + 0.0j, abs=TOL)
        assert phases[BellIndex.PSI_PLUS] == pytest.approx(-1.0 + 0.0j, abs=TOL)
        assert phases[BellIndex.PHI_MINUS] == pytest.approx(-1.0 + 0.0j, abs=TOL)
        assert phases[BellIndex.PHI_PLUS] == pytest.approx(-1.0 + 0.0j, abs=TOL)
        by_bell = {c.bell: c for c in report.comparisons}
        assert by_bell[BellIndex.PSI_MINUS].exact_match

    def test_verdicts_are_deterministic(self):
        a = verify_expansion("2B")
        b = verify_expansion("2B")
        assert a == b

    def test_reference_table_parses(self):
        slots, table = load_reference_table("A1")
        assert slots == ("2", "B")
        assert set(table) == set(BELL_ORDER)
        # the first branch line is -1/2 * |+> x (|+> + |->)/sqrt2
        np.testing.assert_allclose(
            [float(a) + float(b) * SQRT2 for a, b in table[BellIndex.PSI_MINUS]],
            [-0.5 / SQRT2, -0.5 / SQRT2, 0.0, 0.0],
            atol=TOL,
        )
        # exactly: -1/(2 sqrt 2) = -sqrt(2)/4
        assert table[BellIndex.PSI_MINUS][0] == (0, Fraction(-1, 4))

    def test_unknown_pair_rejected(self):
        with pytest.raises(HardyLabError):
            load_reference_table("AB")
