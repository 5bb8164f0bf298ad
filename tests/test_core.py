"""The exact core: integer states, projectors on labelled slots, Born
weights, collapse and the tolerance rule, checked on hand-worked cases,
against the raw Kronecker products in ``oracle.py`` and on generated
integer states and directions."""

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
from hardylab.observables import build_d
from hardylab.protocol import BELL_ORDER, make_ancillas, make_singlet
from hardylab.protocol import bell_state as exact_bell_state
from hardylab.protocol import make_total_state as exact_total_state

import oracle

TOL = 1e-12


def exact_projector(amps, slots, name=""):
    return exact.ObservableOp(exact.StateVector(tuple(amps), tuple(slots)), name)


class TestExactCore:
    def test_integer_vector_stands_for_its_direction(self):
        s = exact.StateVector((1, 1), ("B",))
        assert s.norm2 == 2
        np.testing.assert_allclose(oracle.unit(s), oracle.XPLUS, atol=TOL)

    @pytest.mark.parametrize(
        "amps, slots, error",
        [
            ((0, 0), ("A",), NormalizationError),
            ((1.0, 0), ("A",), exact.HardyLabError),
            ((1, 0, 0, 0), ("1", "1"), SlotCollisionError),
            ((1, 0, 0), ("1", "2"), DimensionMismatchError),
            ((1, 0), ("Q",), DimensionMismatchError),
        ],
    )
    def test_rejects_bad_states(self, amps, slots, error):
        with pytest.raises(error):
            exact.StateVector(amps, slots)

    def test_total_state_is_the_integer_matrix(self):
        psi = exact_total_state()
        # rows (A, 1), columns (2, B): only A = + carries amplitude
        assert psi.amps == (0, 0, 1, 1, -1, -1, 0, 0) + (0,) * 8
        np.testing.assert_allclose(oracle.unit(psi), oracle.total_state_vec(), atol=TOL)

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


@st.composite
def integer_states(draw, slots=CANONICAL_SLOTS, min_size=1):
    """A nonzero integer state on some of ``slots``, in any order."""
    on = draw(st.permutations(slots))[: draw(st.integers(min_size, len(slots)))]
    amps = draw(st.lists(st.integers(-3, 3), min_size=2 ** len(on), max_size=2 ** len(on)))
    assume(any(amps))
    return exact.StateVector(tuple(amps), tuple(on))


FULL_STATES = integer_states(min_size=4)
DIRECTIONS = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)


class TestStateVector:
    def test_valid_construction(self):
        s, same = exact.StateVector([0, 2], ["A"]), exact.StateVector((0, 2), ("A",))
        assert (s.amps, s.slots, s.norm2, s.nonzero) == ((0, 2), ("A",), 4, ((1, 2),))
        assert s == same and hash(s) == hash(same) and s != exact.StateVector((0, 1), ("A",))

    def test_only_the_zero_vector_is_refused(self):
        # any other integer vector is a direction, normalized by its norm2
        assert exact.StateVector((3, 4), ("A",)).norm2 == 25
        with pytest.raises(NormalizationError, match=r"^the zero vector on \('1', '2'\) is not"):
            exact.StateVector((0, 0, 0, 0), ("1", "2"))

    def test_rejects_duplicate_slots(self):
        # the slot check is cached, and the cache keeps no refusal
        for _ in range(2):
            with pytest.raises(SlotCollisionError, match="duplicate slot labels"):
                exact.StateVector((1, 0, 0, 0), ("1", "1"))

    @pytest.mark.parametrize("slots, message", [
        (("Q",), "unknown slot labels ['Q']"), ((), "slot count must be 1..4, got 0"),
        (CANONICAL_SLOTS + ("A",), "slot count must be 1..4, got 5"),
    ], ids=["unknown", "none", "five"])
    def test_rejects_unknown_slot(self, slots, message):
        for _ in range(2):
            with pytest.raises(DimensionMismatchError, match=re.escape(message)):
                exact.StateVector((1,) + (0,) * (2 ** len(slots) - 1), slots)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, 1.0, Fraction(1), np.int64(1), True, "1"])
    def test_rejects_non_integer_amplitudes(self, amp):
        # a float, even a whole one, would let rounding into the algebra
        with pytest.raises(exact.HardyLabError, match="amplitudes must be integers"):
            exact.StateVector((amp, 0), ("A",))

    def test_amps_are_immutable(self):
        s = oracle.exact_ket("+", ("A",))
        with pytest.raises(TypeError):
            s.amps[0] = 0
        for field in ("amps", "slots", "norm2"):
            with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
                setattr(s, field, None)
        assert (s.amps, s.slots, s.norm2) == ((1, 0), ("A",), 1)


@given(s=integer_states(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_reordered_state_has_the_same_weights(s, data):
    # slots are read by label: the same ket listed in another order
    order = tuple(data.draw(st.permutations(s.slots)))
    moved = oracle.permutation(s.slots, order) @ np.array(s.amps)
    r = exact.StateVector(tuple(int(a) for a in moved), order)
    np.testing.assert_array_equal(oracle.unit(r), oracle.unit(s))
    op = exact.ObservableOp(data.draw(integer_states(s.slots)))
    assert exact.born_weight(op, r) == exact.born_weight(op, s)


class TestTensor:
    def test_basis_product(self):
        out = exact.tensor(oracle.exact_ket("+", ("1",)), oracle.exact_ket("-", ("2",)))
        assert (out.amps, out.slots, out.norm2) == ((0, 1, 0, 0), ("1", "2"), 1)

    def test_total_state_is_the_product_of_its_factors(self):
        a, b = make_ancillas()
        assert exact.tensor(exact.tensor(a, make_singlet()), b) == exact_total_state()

    def test_slot_collision(self):
        with pytest.raises(SlotCollisionError):
            exact.tensor(oracle.exact_ket("+", ("1",)), oracle.exact_ket("-", ("1",)))


@given(a=integer_states(("A", "1")), b=integer_states(("2", "B")))
@settings(max_examples=50, deadline=None)
def test_tensor_multiplies_the_squared_lengths(a, b):
    out = exact.tensor(a, b)
    assert out.norm2 == a.norm2 * b.norm2
    np.testing.assert_allclose(oracle.unit(out), np.kron(oracle.unit(a), oracle.unit(b)), atol=TOL)


class TestApply:
    @given(s=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_own_projector_returns_the_state_exactly(self, s):
        op = exact.ObservableOp(s)
        amps, norm2 = exact.apply(op, s)
        assert amps == tuple(s.norm2 * a for a in s.amps) and norm2 == s.norm2**3
        assert exact.born_probability(op, s) == 1
        g = math.gcd(*s.amps)
        assert exact.collapse(op, s) == (1, exact.StateVector([a // g for a in s.amps], s.slots))

    def test_orthogonal_projection_is_zero(self):
        s = exact.StateVector((0, 0, 2, -6), ("B", "2"))  # |-> on B
        for k in [(1, 0), (0, 1), (1, 1), (3, -2)]:
            op = exact_projector(k, ("2",)) @ exact_projector((1, 0), ("B",))
            amps, norm2 = exact.apply(op, s)
            assert amps == (0, 0, 0, 0) and norm2 > 0
            assert exact.born_weight(op, s)[0] == 0

    @given(s=FULL_STATES, target=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_residue_matches_the_projector_matrix(self, s, target):
        amps, norm2 = exact.apply(exact.ObservableOp(target), s)
        got = oracle.permutation(s.slots, CANONICAL_SLOTS) @ np.array(amps) / math.sqrt(norm2)
        want = oracle.projector(target.amps, target.slots) @ oracle.unit(s)
        np.testing.assert_allclose(got, want, atol=TOL)


class TestBornProbability:
    @given(s=FULL_STATES, slot=st.sampled_from(CANONICAL_SLOTS), k=DIRECTIONS)
    @settings(max_examples=50, deadline=None)
    def test_expectation_of_a_spin_direction(self, s, slot, k):
        # P_k - P_k' is the +-1 spin observable along k, k' the orthogonal direction
        up, down = exact_projector(k, (slot,)), exact_projector((-k[1], k[0]), (slot,))
        p_up, p_down = exact.born_probability(up, s), exact.born_probability(down, s)
        assert p_up + p_down == 1
        reference = oracle.born(oracle.dense(up) - oracle.dense(down), oracle.unit(s))
        assert float(p_up - p_down) == pytest.approx(reference, abs=TOL)


class TestCollapse:
    @given(s=integer_states(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_collapse_is_idempotent(self, s, data):
        op = exact.ObservableOp(data.draw(integer_states(s.slots)))
        assume(exact.born_weight(op, s)[0])
        _, post = exact.collapse(op, s)
        assert math.gcd(*post.amps) == 1
        assert exact.collapse(op, post) == (1, post)


class TestCommutator:
    def test_z_and_x_projectors_on_one_qubit(self):
        z, x = exact_projector((1, 0), ("1",)), exact_projector((1, 1), ("1",))
        assert exact.commutator_norm(z, x) == Fraction(1, 2)

    @given(a=integer_states(), b=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_commutator_matches_the_dense_matrices(self, a, b):
        pa, pb = exact.ObservableOp(a), exact.ObservableOp(b)
        got = exact.commutator_norm(pa, pb)
        assert exact.commutator_norm(pb, pa) == got
        ma, mb = oracle.dense(pa), oracle.dense(pb)
        assert float(got) == pytest.approx(np.abs(ma @ mb - mb @ ma).max(), abs=TOL)


class TestMarginals:
    @given(k=DIRECTIONS, slot=st.sampled_from(("1", "2")))
    @settings(max_examples=50, deadline=None)
    def test_singlet_marginal_is_maximally_mixed(self, k, slot):
        assert exact.born_probability(exact_projector(k, (slot,)), make_singlet()) == Fraction(1, 2)

    def test_product_state_slot(self):
        s = oracle.exact_ket("+-", ("1", "2"))
        assert exact.born_probability(exact_projector((0, 1), ("2",)), s) == 1
        assert exact.born_probability(exact_projector((1, 0), ("2",)), s) == 0
        assert exact.born_probability(exact_projector((2, 1), ("2",)), s) == Fraction(1, 5)


class TestOperatorInvariants:
    # Hermitian, idempotent and identity off its slots by construction
    @given(target=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_matrix_is_symmetric(self, target):
        m = oracle.dense(exact.ObservableOp(target))
        np.testing.assert_array_equal(m, m.T)

    @given(target=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_matrix_is_idempotent_with_its_rank_as_trace(self, target):
        m = oracle.dense(exact.ObservableOp(target))
        np.testing.assert_allclose(m @ m, m, atol=TOL)
        assert np.trace(m) == pytest.approx(2 ** (4 - len(target.slots)), abs=TOL)

    @given(target=integer_states())
    @settings(max_examples=50, deadline=None)
    def test_acts_on_exactly_the_target_slots(self, target):
        op = exact.ObservableOp(target)
        assert op.acts_on == frozenset(target.slots)
        np.testing.assert_allclose(
            oracle.dense(op), oracle.projector(target.amps, target.slots), atol=TOL
        )


@given(a=FULL_STATES, b=FULL_STATES)
@settings(max_examples=50, deadline=None)
def test_inner_product_is_symmetric(a, b):
    # a target on every slot of the state leaves one number: <a|b> scaled
    (ab,) = exact.partial_overlap(a, b)
    assert exact.partial_overlap(b, a) == [ab]
    reference = np.vdot(oracle.unit(a), oracle.unit(b)).real
    assert ab / math.sqrt(a.norm2 * b.norm2) == pytest.approx(reference, abs=TOL)


INTEGER_STATES = st.lists(st.integers(-3, 3), min_size=16, max_size=16).filter(any)


@given(amps=INTEGER_STATES, order=st.permutations(CANONICAL_SLOTS))
@settings(max_examples=50, deadline=None)
def test_bell_projectors_are_complete_and_born_additive(amps, order):
    s = exact.StateVector(tuple(amps), tuple(order))
    for pair in ("A1", "2B"):
        assert sum(exact.born_probability(build_d(pair, index), s) for index in BELL_ORDER) == 1


@given(direction=st.tuples(st.integers(-100, 100), st.integers(-100, 100)).filter(any))
@settings(max_examples=100, deadline=None)
def test_singlet_anticorrelation_along_any_direction(direction):
    both = exact_projector(direction, ("1",)) @ exact_projector(direction, ("2",))
    assert exact.born_probability(both, make_singlet()) == 0


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
        "tol", [math.nan, math.inf, -math.inf, -1, -1e-300, "0.1", None, np.int64(1), True, False]
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
