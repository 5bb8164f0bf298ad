"""The four-qubit state, its Bell expansions and the shipped reference
table, checked exactly, against the raw Kronecker products in ``oracle.py``
and, for the expansion's completeness, on generated integer states."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.core import CANONICAL_SLOTS, DimensionMismatchError, HardyLabError
from hardylab.core import StateVector as ExactState
from hardylab.core import ObservableOp, born_probability
from hardylab.core import tensor as exact_tensor
from hardylab.protocol import (
    BELL_ORDER,
    BellIndex,
    _parse_coeff,
    bell_state,
    expand_in_bell_basis,
    load_reference_table,
    make_ancillas,
    make_singlet,
    make_total_state,
    verify_expansion,
)

import oracle
from oracle import I2, MINUS, PLUS, XPLUS, exact_ket, proj, unit

TOL = 1e-12
SQRT2 = np.sqrt(2.0)


class TestStates:
    def test_singlet_amplitudes(self):
        s = make_singlet()
        assert (s.amps, s.slots, s.norm2) == ((0, 1, -1, 0), ("1", "2"), 2)
        np.testing.assert_allclose(unit(s), [0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0], atol=TOL)

    def test_singlet_never_shows_parallel_spins(self):
        both_up = ObservableOp(exact_ket("++", ("1", "2")))
        assert born_probability(both_up, make_singlet()) == 0
        assert abs(np.vdot(np.kron(PLUS, PLUS), unit(make_singlet()))) <= TOL

    def test_ancilla_states(self):
        a, b = make_ancillas()
        assert (a.amps, a.slots, b.amps, b.slots) == ((1, 0), ("A",), (1, 1), ("B",))
        np.testing.assert_allclose(unit(a), PLUS, atol=TOL)  # spin-up along z
        np.testing.assert_allclose(unit(b), XPLUS, atol=TOL)  # spin-up along x

    def test_total_state_structure(self):
        s = make_total_state()
        assert s.slots == CANONICAL_SLOTS
        psi = unit(s)
        np.testing.assert_allclose(psi, oracle.total_state_vec(), atol=TOL)
        nonzero = np.abs(psi) > TOL
        assert nonzero.sum() == 4
        np.testing.assert_allclose(np.abs(psi[nonzero]), 0.5, atol=TOL)
        # ancilla A is untouched by the construction
        assert oracle.born(np.kron(proj(PLUS), np.eye(8)), psi) == pytest.approx(1.0, abs=TOL)


class TestBellStates:
    def test_printed_sign_conventions(self):
        psim = unit(bell_state(BellIndex.PSI_MINUS, ("1", "2")))
        np.testing.assert_allclose(psim, [0, 1 / SQRT2, -1 / SQRT2, 0], atol=TOL)
        phip = unit(bell_state(BellIndex.PHI_PLUS, ("1", "2")))
        np.testing.assert_allclose(phip, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=TOL)

    def test_orthonormal_basis(self):
        states = [unit(bell_state(i, ("A", "1"))) for i in BELL_ORDER]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert np.vdot(a, b) == pytest.approx(float(i == j), abs=TOL)


class TestExpansion:
    def test_alice_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("A", "1"))
        assert exp.residual_slots == ("2", "B")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert br.weight == Fraction(1, 4)
        # the residual is |+>_2 x |+x>_B up to sign
        assert abs(np.vdot(np.kron(PLUS, XPLUS), unit(br.residual))) == pytest.approx(1.0, abs=TOL)

    def test_teleportation_pattern_on_qubit_2(self):
        # psi branches leave qubit 2 spin-up, phi branches spin-down
        exp = expand_in_bell_basis(make_total_state(), ("A", "1"))
        for index, target in [
            (BellIndex.PSI_MINUS, PLUS),
            (BellIndex.PSI_PLUS, PLUS),
            (BellIndex.PHI_MINUS, MINUS),
            (BellIndex.PHI_PLUS, MINUS),
        ]:
            residual = unit(exp.branch(index).residual)  # on (2, B)
            assert oracle.born(np.kron(proj(target), I2), residual) == pytest.approx(1.0, abs=TOL)

    def test_bob_pair_expansion(self):
        exp = expand_in_bell_basis(make_total_state(), ("2", "B"))
        assert exp.residual_slots == ("A", "1")
        br = exp.branch(BellIndex.PSI_MINUS)
        assert br.weight == Fraction(1, 4)
        residual = unit(br.residual)  # on (A, 1)
        assert oracle.born(np.kron(I2, proj(XPLUS)), residual) == pytest.approx(1.0, abs=TOL)

    def test_uniform_branch_weights(self):
        for pair in (("A", "1"), ("2", "B")):
            exp = expand_in_bell_basis(make_total_state(), pair)
            for br in exp.branches:
                assert (br.weight, abs(br.sign)) == (Fraction(1, 4), 1)

    def test_split_convention_matches_the_partial_inner_products(self):
        # each residual's first largest-magnitude amplitude is positive, and
        # the branch carries the sign of <b|psi>
        for pair in (("A", "1"), ("2", "B")):
            exact = expand_in_bell_basis(make_total_state(), pair)
            overlaps = oracle.bell_overlaps(oracle.total_state_vec(), pair)
            for got in exact.branches:
                assert max(got.residual.amps, key=abs) > 0
                assert got.weight == Fraction(1, 4)
                np.testing.assert_allclose(
                    got.sign * unit(got.residual) / 2, overlaps[got.bell.value], atol=TOL
                )
        psim = expand_in_bell_basis(make_total_state(), ("A", "1")).branch(BellIndex.PSI_MINUS)
        assert (psim.sign, psim.residual.amps) == (-1, (1, 1, 0, 0))

    def test_bell_state_expanded_on_its_own_slots(self):
        for index in BELL_ORDER:
            exp = expand_in_bell_basis(bell_state(index, ("1", "2")), ("1", "2"))
            br = exp.branch(index)
            assert (br.weight, br.sign) == (1, 1)
            assert br.residual is None
            others = [b for b in exp.branches if b.bell is not index]
            assert all(b.empty for b in others)

    def test_missing_slots_rejected(self):
        with pytest.raises(DimensionMismatchError):
            expand_in_bell_basis(make_singlet(), ("A", "1"))

    def test_a_repeated_slot_is_not_a_pair(self):
        with pytest.raises(DimensionMismatchError, match="must be a pair"):
            expand_in_bell_basis(make_total_state(), ("A", "A"))

    def test_product_state_empty_branches(self):
        # a fully product state across Alice's pair overlaps only phi branches
        state = exact_tensor(
            exact_tensor(exact_ket("++", ("A", "1")), exact_ket("-", ("2",))), exact_ket("+", ("B",))
        )
        exp = expand_in_bell_basis(state, ("A", "1"))
        for index in (BellIndex.PSI_MINUS, BellIndex.PSI_PLUS):
            br = exp.branch(index)
            assert br.empty and (br.sign, br.residual) == (0, None)
        assert not exp.branch(BellIndex.PHI_PLUS).empty

    def test_residual_is_the_least_integer_ket(self):
        # |++>_(A,1) |+>_B with every amplitude 2: each phi branch leaves (2, 2) on B
        state = ExactState((2, 2) + (0,) * 6, ("A", "1", "B"))
        for index in (BellIndex.PHI_MINUS, BellIndex.PHI_PLUS):
            br = expand_in_bell_basis(state, ("A", "1")).branch(index)
            assert (br.weight, br.sign, br.residual.amps) == (Fraction(1, 2), 1, (1, 1))


class TestReconstruction:
    """The four Bell kets on a pair are complete: summing each ket times the
    partial overlap it leaves gives back the state, in integers."""

    def test_total_state_round_trips(self):
        for pair in (("A", "1"), ("2", "B")):
            s = make_total_state()
            assert oracle.bell_sum(s, pair).tolist() == [2 * a for a in s.amps]

    @given(
        amps=st.lists(st.integers(-3, 3), min_size=16, max_size=16).filter(any),
        order=st.permutations(CANONICAL_SLOTS),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_states_round_trip(self, amps, order):
        s = ExactState(tuple(amps), tuple(order))
        for pair in (("A", "1"), ("2", "B"), ("A", "2"), ("1", "B")):
            assert oracle.bell_sum(s, pair).tolist() == [2 * a for a in s.amps]


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
        # the first branch line is -1/2 * |+> x (|+> + |->)/sqrt2, held as
        # the signed square x*|x| of each entry
        np.testing.assert_allclose(
            [math.copysign(math.sqrt(abs(v)), v) for v in table[BellIndex.PSI_MINUS]],
            [-0.5 / SQRT2, -0.5 / SQRT2, 0.0, 0.0],
            atol=TOL,
        )
        # exactly: the signed square of -1/(2 sqrt 2) is -1/8
        assert table[BellIndex.PSI_MINUS][0] == Fraction(-1, 8)

    def test_unknown_pair_rejected(self):
        with pytest.raises(HardyLabError):
            load_reference_table("AB")

    @pytest.mark.parametrize(
        "token, square",
        [
            ("1/sqrt2", Fraction(1, 2)),
            ("3/4", Fraction(9, 16)),
            ("-1/2sqrt2", Fraction(-1, 8)),
            ("1/0", None),
            ("1/0sqrt2", None),
            ("-3/00", None),
            ("1/", None),
            ("-1/", None),
        ],
    )
    def test_coefficient_tokens(self, token, square):
        if square is None:
            with pytest.raises(HardyLabError):
                _parse_coeff(token)
        else:
            assert _parse_coeff(token) == square
