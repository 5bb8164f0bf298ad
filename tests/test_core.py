"""The float reference layer in ``oracle.py`` (the package's former numpy
core), tested on its own, and the exact core it is cross-checked against."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardylab import core as exact
from hardylab.core import (
    CANONICAL_SLOTS,
    DimensionMismatchError,
    NormalizationError,
    SlotCollisionError,
    ZeroProbabilityError,
)
from hardylab.protocol import BELL_ORDER
from hardylab.protocol import bell_state as exact_bell_state
from hardylab.protocol import make_total_state as exact_total_state

import oracle
from oracle import (
    PAULI_X,
    PAULI_Z,
    NonProjectorError,
    ObservableOp,
    OperatorInvariantError,
    StateVector,
    _acts_trivially,
    apply,
    bell_state,
    born_probability,
    collapse,
    commutator_norm,
    expectation,
    inner,
    ket,
    make_singlet,
    make_total_state,
    reduced_density,
    reduced_projector_fidelity,
    reorder,
    tensor,
)

TOL = 1e-12


def random_state(seed: int, slots) -> StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** len(slots)) + 1j * rng.normal(size=2 ** len(slots))
    return StateVector(v / np.linalg.norm(v), tuple(slots))


class TestStateVector:
    def test_valid_construction(self):
        s = StateVector(np.array([1, 0], dtype=complex), ("A",))
        assert s.n_qubits == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([1, 1], dtype=complex), ("A",))

    def test_rejects_duplicate_slots(self):
        with pytest.raises(SlotCollisionError):
            StateVector(np.eye(4)[0], ("1", "1"))

    def test_rejects_unknown_slot(self):
        with pytest.raises(DimensionMismatchError):
            StateVector(np.array([1, 0]), ("Q",))

    def test_rejects_non_finite(self):
        with pytest.raises(Exception):
            StateVector(np.array([np.nan, 0]), ("A",))

    def test_amps_are_immutable(self):
        s = ket("+", ("A",))
        with pytest.raises(ValueError):
            s.amps[0] = 0.0

    def test_reorder_permutes_amplitudes(self):
        s = ket("+-", ("1", "2"))
        r = reorder(s, ("2", "1"))
        assert r.slots == ("2", "1")
        assert r.amps[2] == 1.0  # |-+> in the new order


class TestTensor:
    def test_basis_product(self):
        out = tensor(ket("+", ("1",)), ket("-", ("2",)))
        assert out.slots == ("1", "2")
        assert out.amps[1] == 1.0
        assert np.count_nonzero(out.amps) == 1

    def test_total_state_matches_enumeration_oracle(self):
        got = make_total_state()
        assert got.slots == CANONICAL_SLOTS
        np.testing.assert_allclose(got.amps, oracle.total_state_vec(), atol=TOL)
        nonzero = np.abs(got.amps) > TOL
        assert nonzero.sum() == 4
        np.testing.assert_allclose(np.abs(got.amps[nonzero]), 0.5, atol=TOL)

    def test_slot_collision(self):
        with pytest.raises(SlotCollisionError):
            tensor(ket("+", ("1",)), ket("-", ("1",)))


class TestApply:
    def test_identity_returns_state_exactly(self):
        s = random_state(5, ("1", "2"))
        out = apply(ObservableOp.identity(("1", "2")), s)
        np.testing.assert_array_equal(out, s.amps)

    def test_orthogonal_projection_is_zero(self):
        p = ObservableOp.projector_onto(ket("+", ("1",)))
        out = apply(p, ket("-", ("1",)))
        assert np.abs(out).max() == 0.0

    def test_bell_projection_residue_norm(self):
        # branch weight of the first Bell outcome on Alice's pair is 1/4
        psi = make_total_state()
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        out = apply(d1, psi)
        assert abs(np.linalg.norm(out) ** 2 - 0.25) <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(ObservableOp.identity(("1",)), ket("+-", ("1", "2")))


class TestBornProbability:
    def test_joint_bell_projection_is_one_sixteenth(self):
        psi = make_total_state()
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        d2 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("2", "B")),
                                         within=CANONICAL_SLOTS)
        assert abs(born_probability(d1 @ d2, psi) - 1.0 / 16.0) <= TOL

    def test_identity_probability_is_one(self):
        s = random_state(11, ("A", "1", "2"))
        assert born_probability(ObservableOp.identity(s.slots), s) == pytest.approx(1.0, abs=TOL)

    def test_same_spin_joint_on_singlet_is_zero(self):
        psi = make_total_state()
        u1 = ObservableOp.single_qubit(oracle.proj(oracle.PLUS), "1",
                                       CANONICAL_SLOTS, "U1", is_projector=True)
        u2 = ObservableOp.single_qubit(oracle.proj(oracle.PLUS), "2",
                                       CANONICAL_SLOTS, "U2", is_projector=True)
        assert born_probability(u1 @ u2, psi) == 0.0

    def test_non_projector_rejected(self):
        x = ObservableOp.single_qubit(PAULI_X, "1", name="X")
        with pytest.raises(NonProjectorError):
            born_probability(x, ket("+", ("1",)))

    def test_expectation_of_pauli(self):
        z = ObservableOp.single_qubit(PAULI_Z, "A", name="Z")
        assert expectation(z, ket("+", ("A",))) == pytest.approx(1.0, abs=TOL)
        assert expectation(z, ket("-", ("A",))) == pytest.approx(-1.0, abs=TOL)


class TestCollapse:
    def test_bell_collapse_teleports_plus_onto_qubit_2(self):
        psi = make_total_state()
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        p, post = collapse(d1, psi)
        assert abs(p - 0.25) <= TOL
        # the reduced state of qubit 2 is the pure plus state
        rho = reduced_density(post, "2")
        np.testing.assert_allclose(rho, oracle.proj(oracle.PLUS), atol=TOL)
        assert reduced_projector_fidelity(post, "2", ket("+", ("2",))) == pytest.approx(1.0, abs=TOL)

    def test_zero_branch_is_an_explicit_error(self):
        psi = make_total_state()
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        _, post = collapse(d1, psi)
        minus2 = ObservableOp.single_qubit(oracle.proj(oracle.MINUS), "2",
                                           CANONICAL_SLOTS, "P-[2]", is_projector=True)
        with pytest.raises(ZeroProbabilityError):
            collapse(minus2, post)

    def test_identity_collapse(self):
        s = random_state(2, ("1", "B"))
        p, post = collapse(ObservableOp.identity(s.slots), s)
        assert p == pytest.approx(1.0, abs=TOL)
        np.testing.assert_allclose(post.amps, s.amps, atol=TOL)

    def test_collapse_then_born_is_one(self):
        s = random_state(8, ("1", "2"))
        proj = ObservableOp.projector_onto(ket("+", ("1",)), within=("1", "2"))
        p, post = collapse(proj, s)
        assert p > 0
        assert born_probability(proj, post) == pytest.approx(1.0, abs=TOL)


class TestCommutator:
    def test_disjoint_bell_projectors_commute(self):
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        d2 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("2", "B")),
                                         within=CANONICAL_SLOTS)
        assert commutator_norm(d1, d2) <= TOL

    def test_pauli_xz_on_one_qubit(self):
        x = ObservableOp.single_qubit(PAULI_X, "1", name="X")
        z = ObservableOp.single_qubit(PAULI_Z, "1", name="Z")
        assert commutator_norm(x, z) == pytest.approx(2.0, abs=TOL)

    def test_identity_commutes_with_everything(self):
        x = ObservableOp.single_qubit(PAULI_X, "1", ("1", "2"), name="X")
        assert commutator_norm(x, ObservableOp.identity(("1", "2"))) == 0.0


class TestReducedFidelity:
    def test_singlet_marginal_is_maximally_mixed(self):
        s = make_singlet()
        assert reduced_projector_fidelity(s, "1", ket("+", ("1",))) == pytest.approx(0.5, abs=TOL)

    def test_product_state_slot(self):
        s = ket("+-", ("1", "2"))
        assert reduced_projector_fidelity(s, "2", ket("-", ("2",))) == pytest.approx(1.0, abs=TOL)

    def test_missing_slot(self):
        with pytest.raises(DimensionMismatchError):
            reduced_projector_fidelity(make_singlet(), "B", ket("+", ("B",)))


class TestOperatorInvariants:
    def test_non_hermitian_rejected(self):
        with pytest.raises(OperatorInvariantError):
            ObservableOp(np.array([[0, 1], [0, 0]]), ("1",))

    def test_projector_flag_requires_idempotence(self):
        with pytest.raises(OperatorInvariantError):
            ObservableOp(PAULI_X, ("1",), is_projector=True)

    def test_acts_on_claim_is_verified(self):
        mat = np.kron(PAULI_X, np.eye(2))
        # claims to act on slot 2 only, but actually acts on slot 1
        with pytest.raises(OperatorInvariantError):
            ObservableOp(mat, ("1", "2"), acts_on=frozenset({"2"}))

    def test_projector_trace_counts_rank(self):
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        assert np.trace(d1.matrix).real == pytest.approx(4.0, abs=TOL)

    def test_product_of_non_commuting_projectors_is_refused(self):
        # the product would not be Hermitian, so it cannot be an observable
        d1 = ObservableOp.projector_onto(bell_state(BELL_ORDER[0], ("A", "1")),
                                         within=CANONICAL_SLOTS)
        u1 = ObservableOp.single_qubit(oracle.proj(oracle.PLUS), "1",
                                       CANONICAL_SLOTS, "U1", is_projector=True)
        with pytest.raises(OperatorInvariantError):
            d1 @ u1


# --- property tests --------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_bell_projectors_are_complete_and_born_additive(seed):
    s = random_state(seed, CANONICAL_SLOTS)
    for pair in (("A", "1"), ("2", "B")):
        total = np.zeros((16, 16), dtype=complex)
        prob = 0.0
        for index in BELL_ORDER:
            op = ObservableOp.projector_onto(bell_state(index, pair),
                                             within=CANONICAL_SLOTS)
            total = total + op.matrix
            prob += born_probability(op, s)
        assert np.abs(total - np.eye(16)).max() <= TOL
        assert abs(prob - 1.0) <= TOL


@given(
    theta=st.floats(0.0, math.pi, allow_nan=False),
    phi=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_singlet_anticorrelation_along_any_direction(theta, phi):
    up = np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))],
        dtype=complex,
    )
    s = make_singlet()
    p1 = ObservableOp.single_qubit(oracle.proj(up), "1", ("1", "2"), "n1", is_projector=True)
    p2 = ObservableOp.single_qubit(oracle.proj(up), "2", ("1", "2"), "n2", is_projector=True)
    assert born_probability(p1 @ p2, s) <= TOL


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_random_states_stay_normalized_through_tensor(seed):
    a = random_state(seed, ("A", "1"))
    b = random_state(seed + 1, ("2", "B"))
    assert abs(tensor(a, b).norm() - 1.0) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_inner_product_is_conjugate_symmetric(seed):
    a = random_state(seed, ("1", "2"))
    b = random_state(seed + 7, ("1", "2"))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    tol=st.sampled_from((1e-12, 1e-9)),
    scale=st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0, 1e6)),
)
@settings(max_examples=300, deadline=None)
def test_acts_trivially_matches_commutator_reference(seed, n, tol, scale):
    # identity on one slot plus a perturbation of a few tolerances, so
    # both decisions and the ties at the margin all occur
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(n))
    rest = rng.normal(size=(2 ** (n - 1),) * 2) + 1j * rng.normal(size=(2 ** (n - 1),) * 2)
    big = np.kron(np.eye(2), rest).reshape((2,) * (2 * n))
    big = np.moveaxis(big, (0, n), (axis, n + axis)).reshape(2**n, 2**n)
    noise = rng.normal(size=big.shape) + 1j * rng.normal(size=big.shape)
    noise = np.where(rng.random(big.shape) < 0.3, noise, 0)
    mat = big + scale * tol * noise
    assert _acts_trivially(mat, n, axis, tol) == oracle.acts_trivially(mat, n, axis, tol)


# --- the exact core -----------------------------------------------------------


def exact_projector(amps, slots, name=""):
    return exact.ObservableOp(exact.StateVector(tuple(amps), tuple(slots)), name)


class TestExactCore:
    def test_integer_vector_stands_for_its_direction(self):
        s = exact.StateVector((1, 1), ("B",))
        assert s.norm2 == 2
        np.testing.assert_allclose(oracle.as_float(s).amps, oracle.XPLUS, atol=TOL)

    @pytest.mark.parametrize(
        "amps, slots, error",
        [
            ((0, 0), ("A",), NormalizationError),
            ((1.0, 0), ("A",), exact.HardyLabError),
            ((1, 0, 0, 0), ("1", "1"), SlotCollisionError),
            ((1, 0, 0), ("1", "2"), DimensionMismatchError),
        ],
    )
    def test_rejects_bad_states(self, amps, slots, error):
        with pytest.raises(error):
            exact.StateVector(amps, slots)

    def test_total_state_is_the_integer_matrix(self):
        psi = exact_total_state()
        # rows (A, 1), columns (2, B): only A = + carries amplitude
        assert psi.amps == (0, 0, 1, 1, -1, -1, 0, 0) + (0,) * 8
        np.testing.assert_allclose(oracle.as_float(psi).amps, oracle.total_state_vec(), atol=TOL)

    def test_joint_bell_projection_is_exactly_one_sixteenth(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")))
        d2 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("2", "B")))
        assert exact.born_probability(d1 @ d2, exact_total_state()) == Fraction(1, 16)

    def test_same_spin_joint_on_singlet_is_exactly_zero(self):
        u1 = exact_projector((1, 0), ("1",))
        u2 = exact_projector((1, 0), ("2",))
        assert exact.born_probability(u1 @ u2, exact_total_state()) == 0

    def test_projection_residue_keeps_its_weight(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")))
        amps, norm2 = exact.apply(d1, exact_total_state())
        assert type(norm2) is int and {type(a) for a in amps} == {int}
        assert Fraction(sum(a * a for a in amps), norm2) == Fraction(1, 4)
        np.testing.assert_allclose(
            np.array(amps) / math.sqrt(norm2),
            oracle.d1_matrix("psi-") @ oracle.total_state_vec(),
            atol=TOL,
        )

    def test_collapse_teleports_plus_onto_qubit_2(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")))
        p, post = exact.collapse(d1, exact_total_state())
        assert p == Fraction(1, 4)
        plus2, minus2 = exact_projector((1, 0), ("2",)), exact_projector((0, 1), ("2",), "minus2")
        assert exact.born_probability(plus2, post) == 1
        with pytest.raises(ZeroProbabilityError, match="collapse on minus2 has probability 0"):
            exact.collapse(minus2, post)

    def test_collapse_keeps_the_least_integer_ket(self):
        # B is already |+>, so the residue is the total state's amplitudes doubled
        plus_b = exact_projector((1, 1), ("B",))
        assert exact.apply(plus_b, exact_total_state())[0][2:6] == (2, 2, -2, -2)
        assert exact.collapse(plus_b, exact_total_state()) == (1, exact_total_state())

    def test_commutators_are_exact(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")))
        d2 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("2", "B")))
        u1 = exact_projector((1, 0), ("1",))
        assert exact.commutator_norm(d1, d2) == 0
        assert exact.commutator_norm(d1, d1) == 0
        got = exact.commutator_norm(d1, u1)
        assert got > 0
        reference = np.abs(oracle.dense(d1) @ oracle.dense(u1) - oracle.dense(u1) @ oracle.dense(d1))
        assert float(got) == pytest.approx(reference.max(), abs=TOL)

    def test_matrix_matches_the_kron_oracle(self):
        op = exact.ObservableOp(exact_bell_state(BELL_ORDER[1], ("2", "B")))
        assert op.matrix.shape == (16, 16) and op.matrix.readonly
        np.testing.assert_allclose(oracle.dense(op), oracle.d2_matrix("psi+"), atol=0)

    def test_products_only_across_disjoint_slots(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")))
        with pytest.raises(exact.HardyLabError):
            d1 @ exact_projector((1, 0), ("1",))
        # orthogonal projectors on one slot commute, but their targets differ
        plus, minus = exact_projector((1, 0), ("1",)), exact_projector((0, 1), ("1",))
        assert not exact.commutator_norm(plus, minus)
        with pytest.raises(exact.HardyLabError, match="share slots"):
            plus @ minus

    def test_a_projector_times_itself_is_itself(self):
        d1 = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")), "D1")
        assert d1 @ d1 is d1
        twin = exact.ObservableOp(exact_bell_state(BELL_ORDER[0], ("A", "1")), "twin")
        assert d1 @ twin is d1

    def test_partial_overlap_reads_the_residual(self):
        # <psi-|_(A,1) on the total state leaves -(|+>_2 (|+> + |->)_B)
        overlap = exact.partial_overlap(exact_bell_state(BELL_ORDER[0]), exact_total_state())
        assert overlap == [-1, -1, 0, 0]


def lab_operators():
    """The 18 distinct lab operators and every context product over them."""
    from hardylab.observables import Interpretation, build_d, build_u, context_observables

    ops = [build_d(pair, index) for pair in ("A1", "2B") for index in BELL_ORDER]
    ops += [build_u(slot, interp, index)
            for slot in ("1", "2") for interp in Interpretation for index in BELL_ORDER]
    ops = list({id(op): op for op in ops}.values())
    assert len(ops) == 18
    products = [
        first @ second
        for interp in Interpretation for i in BELL_ORDER for j in BELL_ORDER
        for first, second in (
            context_observables(key, i, j, interp) for key in ("d1d2", "d1u2", "u1d2", "u1u2")
        )
    ]
    return ops + products


class TestBornWeight:
    def test_probability_is_the_weight_as_a_fraction(self):
        psi = exact_total_state()
        for op in lab_operators():
            num, den = exact.born_weight(op, psi)
            assert type(num) is int and type(den) is int and den > 0
            assert exact.born_probability(op, psi) == Fraction(num, den)


def dense_overlap(target, s) -> list[int]:
    """<target| s> by a loop over all 2**n amplitudes of ``s``, reading each
    slot's bit of the basis index by label."""
    n = len(s.slots)
    rest = [label for label in s.slots if label not in target.slots]
    out = [0] * 2 ** len(rest)
    for i, a in enumerate(s.amps):
        bit = {label: (i >> (n - 1 - k)) & 1 for k, label in enumerate(s.slots)}
        t = sum(bit[label] << (len(target.slots) - 1 - k) for k, label in enumerate(target.slots))
        r = sum(bit[label] << (len(rest) - 1 - k) for k, label in enumerate(rest))
        out[r] += target.amps[t] * a
    return out


@st.composite
def sparse_cases(draw):
    """A unit integer state with most amplitudes zero, and a unit target on
    a subset of its slots in any order."""
    slots = draw(st.permutations(CANONICAL_SLOTS))[: draw(st.integers(1, 4))]
    where = draw(st.sets(st.integers(0, 2 ** len(slots) - 1), min_size=1, max_size=4))
    amps = [0] * 2 ** len(slots)
    for i in where:
        amps[i] = draw(st.integers(-5, 5).filter(bool))
    on = draw(st.permutations(slots))[: draw(st.integers(1, len(slots)))]
    target = draw(st.lists(st.integers(-3, 3), min_size=2 ** len(on), max_size=2 ** len(on)))
    assume(any(target))
    return exact.StateVector(target, tuple(on)), exact.StateVector(amps, tuple(slots))


class TestSparseKernel:
    """``partial_overlap`` reads only the nonzero amplitudes; it must agree
    with a loop over all of them."""

    @settings(max_examples=300, deadline=None)
    @given(case=sparse_cases())
    @example(case=(
        exact.StateVector((1, -1), ("2",)),
        exact.StateVector([0] * 11 + [3] + [0] * 4, CANONICAL_SLOTS),
    ))
    def test_overlap_and_weight_equal_the_dense_loop(self, case):
        target, s = case
        w = dense_overlap(target, s)
        assert exact.partial_overlap(target, s) == w
        op = exact.ObservableOp(target)
        assert exact.born_weight(op, s) == (sum(x * x for x in w), target.norm2 * s.norm2)


class TestSlotCheck:
    """A target whose slots are not all on the state is refused by every
    kernel that reads it, on every call: the cached slot split keeps no
    refusal."""

    STATE = exact.StateVector((1, 0, 0, 1), ("A", "1"))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda op, s: exact.partial_overlap(op.target, s), id="partial_overlap"),
            pytest.param(exact.born_weight, id="born_weight"),
            pytest.param(exact.apply, id="apply"),
        ],
    )
    @pytest.mark.parametrize(
        "target",
        [
            exact.StateVector((1, 1), ("2",)),
            exact.StateVector((1, 0, 0, 1), ("1", "2")),  # one slot present, one not
        ],
        ids=["none-present", "one-present"],
    )
    def test_missing_slots_raise_on_every_call(self, call, target):
        op = exact.ObservableOp(target)
        message = f"slots {target.slots} not all present on {self.STATE.slots}"
        for _ in range(2):
            with pytest.raises(exact.DimensionMismatchError, match=f"^{re.escape(message)}$"):
                call(op, self.STATE)


class TestCheckTolerance:
    @pytest.mark.parametrize(
        "tol", [0, 0.0, 1e-12, 0.5, 1, 1e300, Fraction(1, 3), pytest.param(10**400, id="10**400")]
    )
    def test_finite_nonnegative_tolerances_pass_through(self, tol):
        assert exact.check_tolerance(tol) is tol

    @pytest.mark.parametrize(
        "tol", [math.nan, math.inf, -math.inf, -1, -1e-300, "0.1", None, np.int64(1)]
    )
    def test_other_tolerances_are_refused_by_name(self, tol):
        with pytest.raises(exact.HardyLabError, match=re.escape(repr(tol))):
            exact.check_tolerance(tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_every_tolerance_reader_refuses_them(self, tol):
        # a nan tolerance would let rationalize_table round any float silently
        from hardylab.lhv import claimed_hardy_table, rationalize_table, replay_deductions
        from hardylab.observables import Interpretation, audit_pair

        psim = BELL_ORDER[0]
        calls = [
            lambda: rationalize_table(claimed_hardy_table(), tol),
            lambda: audit_pair(psim, psim, Interpretation.FIXED_BASIS, tol),
            lambda: replay_deductions(exact.HardyClaimSet(1 / 16, 1.0, 1.0, 0.0), tol),
        ]
        for call in calls:
            with pytest.raises(exact.HardyLabError, match=re.escape(repr(tol))):
                call()

    def test_every_tolerance_reader_takes_an_int_beyond_the_float_range(self):
        # every int is finite: it is read as its exact ratio, never as a float
        from hardylab.lhv import claimed_hardy_table, rationalize_table, replay_deductions
        from hardylab.observables import Interpretation, audit_pair

        psim, tol = BELL_ORDER[0], 10**400
        assert rationalize_table(claimed_hardy_table(), tol).den == 16
        assert audit_pair(psim, psim, Interpretation.FIXED_BASIS, tol).all_pass
        # no joint probability exceeds the tolerance, so there is no run
        trace = replay_deductions(exact.HardyClaimSet(1 / 16, 1.0, 1.0, 0.0), tol)
        assert trace.halted_at == 1


def margin_values(target: Fraction, tol: Fraction) -> list:
    """Values at, just inside and just outside ``|value - target| <= tol``:
    the exact margins, and their floats with each float's two neighbours."""
    values = []
    for margin in (target - tol, target + tol):
        near = float(margin)
        values += [margin, near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)]
        values += [margin - Fraction(1, 10**30), margin + Fraction(1, 10**30)]
    if target.denominator == 1:
        values += [int(target), int(target) - 1, int(target) + 1]
    return values


class TestWithinTolerance:
    TARGETS = [Fraction(0), Fraction(1), Fraction(1, 16), Fraction(-2, 3)]
    TOLERANCES = [0, 0.0, 1e-12, 0.25, 0.5, 1, Fraction(1, 3), 5e-324]

    @pytest.mark.parametrize("tol", TOLERANCES, ids=repr)
    @pytest.mark.parametrize("target", TARGETS, ids=str)
    def test_the_rule_is_the_exact_comparison(self, target, tol):
        # ints, Fractions and floats alike, on their exact values
        outcomes = set()
        for value in margin_values(target, Fraction(tol)):
            expected = abs(Fraction(value) - target) <= Fraction(tol)
            ratios = [Fraction(x).as_integer_ratio() for x in (value, target, tol)]
            assert exact.within_tolerance(*ratios) is expected, (value, target, tol)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_unreduced_ratios_give_the_same_decision(self):
        # the audit passes Born weights (num, den) as they are, not reduced
        for value in margin_values(Fraction(1), Fraction(1, 4)):
            p, q = Fraction(value).as_integer_ratio()
            reduced = exact.within_tolerance((p, q), (1, 1), (1, 4))
            assert exact.within_tolerance((3 * p, 3 * q), (7, 7), (2, 8)) is reduced

    def test_a_float_is_read_on_its_binary_value(self):
        # 0.1 is 3602879701896397/2^55, a little above 1/10
        assert not exact.within_tolerance((0.1).as_integer_ratio(), (1, 10), (0, 1))
        assert exact.within_tolerance((0.1).as_integer_ratio(), (1, 10), (1, 2**55 * 5))
        assert not exact.within_tolerance((0.1).as_integer_ratio(), (1, 10), (1, 2**56 * 5))
