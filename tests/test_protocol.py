import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.core import (
    CANONICAL_SLOTS,
    DimensionMismatchError,
    HardyLabError,
    ObservableOp,
    StateVector,
    expectation,
    ket,
    tensor,
)
from hardylab.protocol import (
    BELL_ORDER,
    BellIndex,
    bell_state,
    expand_in_bell_basis,
    load_reference_table,
    make_ancillas,
    make_singlet,
    make_total_state,
    reconstruct,
    verify_expansion,
)

import oracle
from oracle import PAULI_X, PAULI_Z, inner, reduced_projector_fidelity

TOL = 1e-12
SQRT2 = np.sqrt(2.0)


def random_state(seed: int, slots) -> StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** len(slots)) + 1j * rng.normal(size=2 ** len(slots))
    return StateVector(v / np.linalg.norm(v), tuple(slots))


class TestStates:
    def test_singlet_amplitudes(self):
        s = make_singlet()
        assert s.slots == ("1", "2")
        np.testing.assert_allclose(
            s.amps, [0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0], atol=TOL
        )
        assert abs(s.norm() - 1.0) <= TOL

    def test_singlet_never_shows_parallel_spins(self):
        s = make_singlet()
        both_up = ObservableOp.projector_onto(ket("++", ("1", "2")))
        post = both_up.matrix @ s.amps
        assert np.abs(post).max() <= TOL

    def test_ancilla_states(self):
        a, b = make_ancillas()
        assert abs(inner(a, a) - 1.0) <= TOL
        assert abs(inner(b, b) - 1.0) <= TOL
        z = ObservableOp.single_qubit(PAULI_Z, "A", name="Z")
        x = ObservableOp.single_qubit(PAULI_X, "B", name="X")
        assert expectation(z, a) == pytest.approx(1.0, abs=TOL)
        assert expectation(x, b) == pytest.approx(1.0, abs=TOL)

    def test_total_state_structure(self):
        psi = make_total_state()
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
        psim = bell_state(BellIndex.PSI_MINUS, ("1", "2"))
        np.testing.assert_allclose(psim.amps, [0, 1 / SQRT2, -1 / SQRT2, 0], atol=TOL)
        phip = bell_state(BellIndex.PHI_PLUS, ("1", "2"))
        np.testing.assert_allclose(phip.amps, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=TOL)

    def test_orthonormal_basis(self):
        states = [bell_state(i, ("A", "1")) for i in BELL_ORDER]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert inner(a, b) == pytest.approx(float(i == j), abs=TOL)


class TestExpansion:
    def test_alice_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("A", "1"))
        assert exp.residual_slots == ("2", "B")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert abs(abs(br.coefficient) - 0.5) <= TOL
        assert reduced_projector_fidelity(br.residual, "2", ket("+", ("2",))) == pytest.approx(1.0, abs=TOL)
        _, b_state = make_ancillas()
        assert reduced_projector_fidelity(br.residual, "B", b_state) == pytest.approx(1.0, abs=TOL)

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
            fid = reduced_projector_fidelity(br.residual, "2", ket(target, ("2",)))
            assert fid == pytest.approx(1.0, abs=TOL)

    def test_bob_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("2", "B"))
        assert exp.residual_slots == ("A", "1")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert abs(abs(br.coefficient) - 0.5) <= TOL
        xplus = StateVector(np.array([1, 1], dtype=complex) / SQRT2, ("1",))
        assert reduced_projector_fidelity(br.residual, "1", xplus) == pytest.approx(1.0, abs=TOL)

    def test_uniform_branch_weights(self):
        for pair in (("A", "1"), ("2", "B")):
            exp = expand_in_bell_basis(make_total_state(), pair)
            for br in exp.branches:
                assert abs(abs(br.coefficient) ** 2 - 0.25) <= TOL

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
        state = tensor(tensor(ket("++", ("A", "1")), ket("-", ("2",))), ket("+", ("B",)))
        exp = expand_in_bell_basis(state, ("A", "1"))
        assert exp.branch(BellIndex.PSI_MINUS).empty
        assert exp.branch(BellIndex.PSI_PLUS).empty
        assert not exp.branch(BellIndex.PHI_PLUS).empty


class TestReconstruction:
    def test_total_state_round_trips(self):
        psi = make_total_state()
        for pair in (("A", "1"), ("2", "B")):
            exp = expand_in_bell_basis(psi, pair)
            np.testing.assert_allclose(reconstruct(exp).amps, psi.amps, atol=TOL)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_states_round_trip(self, seed):
        s = random_state(seed, CANONICAL_SLOTS)
        for pair in (("A", "1"), ("2", "B"), ("A", "2"), ("1", "B")):
            exp = expand_in_bell_basis(s, pair)
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

    def test_product_state_still_produces_verdicts(self):
        state = tensor(tensor(ket("++", ("A", "1")), ket("-", ("2",))), ket("+", ("B",)))
        report = verify_expansion("A1", state=state)
        assert len(report.comparisons) == 4
        empties = [c for c in report.comparisons if c.empty]
        assert len(empties) == 2
        assert not any(c.exact_match for c in empties)

    def test_reference_table_parses(self):
        slots, table = load_reference_table("A1")
        assert slots == ("2", "B")
        assert set(table) == set(BELL_ORDER)
        # the first branch line is -1/2 * |+> x (|+> + |->)/sqrt2
        np.testing.assert_allclose(
            table[BellIndex.PSI_MINUS],
            [-0.5 / SQRT2, -0.5 / SQRT2, 0.0, 0.0],
            atol=TOL,
        )

    def test_unknown_pair_rejected(self):
        with pytest.raises(HardyLabError):
            load_reference_table("AB")
