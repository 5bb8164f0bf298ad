from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hardylab.core import HardyLabError
from hardylab.lhv import (
    _INCIDENCE,
    ASSIGNMENTS,
    CELLS,
    InfeasibilityWitness,
    LhvCertificate,
    LhvModel,
    MalformedTableError,
    RationalizationError,
    assignment_matches,
    claimed_hardy_table,
    feasibility,
    _phase1_simplex,
    rationalize_table,
    replay_deductions,
    validate_certificate,
)
from hardylab.observables import (
    CONTEXT_KEYS,
    HardyClaimSet,
    Interpretation,
    quantum_probability_table,
)
from hardylab.protocol import BellIndex

import oracle

PSIM = BellIndex.PSI_MINUS


def table_of_model(model: LhvModel) -> dict:
    return {
        key: [[oracle.cell_probability(model, (key, a, b)) for b in (0, 1)] for a in (0, 1)]
        for key in CONTEXT_KEYS
    }


def random_model(seed: int) -> LhvModel:
    rng = np.random.default_rng(seed)
    raw = [Fraction(int(x)) for x in rng.integers(0, 20, size=16)]
    if sum(raw) == 0:
        raw[0] = Fraction(1)
    total = sum(raw)
    return LhvModel({a: w / total for a, w in zip(ASSIGNMENTS, raw)})


def linprog_feasible(exact: dict) -> bool:
    """Independent feasibility oracle: float LP over the same polytope."""
    a_eq = [
        [1.0 if assignment_matches(a, cell) else 0.0 for a in ASSIGNMENTS]
        for cell in CELLS
    ]
    b_eq = [float(exact[key][i][j]) for (key, i, j) in CELLS]
    res = linprog(
        c=[0.0] * 16, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * 16, method="highs"
    )
    return res.status == 0


class TestReplayDeductions:
    def test_advertised_claims_reach_the_contradiction(self):
        trace = replay_deductions(HardyClaimSet(1 / 16, 1.0, 1.0, 0.0))
        assert trace.contradiction
        assert trace.halted_at is None
        assert [s.fired for s in trace.steps] == [True, True, True, True]

    def test_uncertain_conditional_stops_at_step_three(self):
        trace = replay_deductions(HardyClaimSet(1 / 16, 1.0, 0.5, 0.0))
        assert not trace.contradiction
        assert trace.halted_at == 3
        assert trace.steps[0].fired and trace.steps[1].fired
        assert not trace.steps[2].fired

    def test_nonexistent_run_stops_immediately(self):
        trace = replay_deductions(HardyClaimSet(0.0, 1.0, 1.0, 0.0))
        assert not trace.contradiction
        assert trace.halted_at == 1

    def test_nonzero_u1u2_claim_blocks_step_four(self):
        trace = replay_deductions(HardyClaimSet(1 / 16, 1.0, 1.0, 0.25))
        assert not trace.contradiction
        assert trace.halted_at == 4

    @given(
        num=st.integers(1, 10**6),
        den=st.integers(1, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_positive_joint_probability_contradicts(self, num, den):
        p = Fraction(num, den)
        p = p if p <= 1 else 1 / p
        trace = replay_deductions(HardyClaimSet(float(p), 1.0, 1.0, 0.0))
        assert trace.contradiction


class TestClaimedTable:
    def test_completion_values(self):
        exact = claimed_hardy_table()
        assert exact["d1d2"] == [
            [Fraction(9, 16), Fraction(3, 16)],
            [Fraction(3, 16), Fraction(1, 16)],
        ]
        assert exact["d1u2"][1][0] == 0
        assert exact["u1d2"][0][1] == 0
        assert exact["u1u2"][1][1] == 0
        for key in CONTEXT_KEYS:
            assert sum(sum(row, Fraction(0)) for row in exact[key]) == 1

    def test_infeasible_with_deduction_chain(self):
        exact = claimed_hardy_table()
        cert = feasibility(exact)
        assert cert.verdict == "infeasible"
        assert cert.witness is not None
        assert cert.witness.kind == "deduction-chain"
        assert len(cert.witness.chain) == 4
        assert all(step.fired for step in cert.witness.chain)
        assert validate_certificate(exact, cert)
        assert not linprog_feasible(exact)

    @given(num=st.integers(1, 2**18), den_pow=st.integers(2, 18))
    @settings(max_examples=40, deadline=None)
    def test_infeasible_for_every_positive_joint_weight(self, num, den_pow):
        den = 2**den_pow
        p = Fraction(num, den)
        if p > Fraction(1, 4):
            p = Fraction(1, 4) / p.denominator  # keep inside (0, 1/4]
        cert = feasibility(claimed_hardy_table(p))
        assert cert.verdict == "infeasible"
        assert validate_certificate(claimed_hardy_table(p), cert)

    def test_chain_fires_for_a_joint_weight_that_underflows_as_a_float(self):
        p = Fraction(1, 10**400)
        assert float(p) == 0.0
        cert = feasibility(claimed_hardy_table(p))
        assert cert.witness.kind == "deduction-chain"
        assert all(step.fired for step in cert.witness.chain)
        assert f"probability {p})" in cert.witness.chain[0].detail

    def test_rejects_joint_weight_outside_range(self):
        with pytest.raises(HardyLabError):
            claimed_hardy_table(Fraction(1, 2))
        with pytest.raises(HardyLabError):
            claimed_hardy_table(Fraction(0))


class TestQuantumTables:
    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_verdict_is_validated_and_agrees_with_lp_oracle(self, interp):
        table = quantum_probability_table(PSIM, PSIM, interp)
        cert = feasibility(table)
        assert validate_certificate(table, cert)
        exact = rationalize_table(table)
        assert (cert.verdict == "feasible") == linprog_feasible(exact)
        # these single-pair statistics admit a local model
        assert cert.verdict == "feasible"
        for cell in CELLS:
            key, a, b = cell
            assert oracle.cell_probability(cert.model, cell) == exact[key][a][b]


class TestFeasibilityOnMixtures:
    def test_product_statistics_are_feasible(self):
        # deterministic local outcomes: a single assignment gets all weight
        model = LhvModel({ASSIGNMENTS[5]: Fraction(1)})
        table = table_of_model(model)
        cert = feasibility(table)
        assert cert.verdict == "feasible"
        assert validate_certificate(table, cert)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_mixtures_are_reproduced_exactly(self, seed):
        model = random_model(seed)
        table = table_of_model(model)
        cert = feasibility(table)
        assert cert.verdict == "feasible"
        assert validate_certificate(table, cert)

    def test_random_mixtures_agree_with_lp_oracle(self):
        for seed in range(25):
            table = table_of_model(random_model(seed))
            cert = feasibility(table)
            assert cert.verdict == "feasible"
            assert linprog_feasible(table)

    def test_arbitrary_tables_agree_with_lp_oracle_both_ways(self):
        # contexts normalized independently rarely share marginals, so
        # these exercise the Farkas side of the solver against the oracle
        rng = np.random.default_rng(99)
        verdicts = {"feasible": 0, "infeasible": 0}
        for _ in range(40):
            table = {}
            for key in CONTEXT_KEYS:
                parts = [Fraction(int(x)) for x in rng.integers(0, 9, size=4)]
                if sum(parts) == 0:
                    parts[0] = Fraction(1)
                total = sum(parts)
                cells = [p / total for p in parts]
                table[key] = [[cells[0], cells[1]], [cells[2], cells[3]]]
            cert = feasibility(table)
            assert validate_certificate(table, cert)
            assert (cert.verdict == "feasible") == linprog_feasible(table)
            verdicts[cert.verdict] += 1
        assert verdicts["infeasible"] > 0


class TestCertificateValidation:
    def test_compensated_tampering_breaks_validation(self):
        model = random_model(7)
        table = table_of_model(model)
        cert = feasibility(table)
        weights = dict(cert.model.weights)
        nonzero = next(a for a, w in weights.items() if w > Fraction(1, 1000))
        other = next(a for a in ASSIGNMENTS if a != nonzero)
        weights[nonzero] -= Fraction(1, 1000)
        weights[other] = weights.get(other, Fraction(0)) + Fraction(1, 1000)
        tampered = LhvCertificate("feasible", model=LhvModel(weights))
        assert not validate_certificate(table, tampered)

    def test_uncompensated_tampering_violates_model_invariants(self):
        model = random_model(9)
        weights = dict(model.weights)
        key = next(iter(weights))
        weights[key] += Fraction(1, 1000)
        with pytest.raises(HardyLabError):
            LhvModel(weights)

    def test_negative_weight_violates_model_invariants(self):
        # sums to exactly 1 over mixed denominators, one weight below 0
        weights = dict(zip(ASSIGNMENTS, [Fraction(4, 3), Fraction(-1, 2), Fraction(1, 6)]))
        with pytest.raises(HardyLabError, match="nonnegative"):
            LhvModel(weights)

    def test_all_zero_functional_fails(self):
        exact = claimed_hardy_table()
        cert = LhvCertificate(
            "infeasible", witness=InfeasibilityWitness(functional={})
        )
        assert not validate_certificate(exact, cert)

    def test_functional_outside_the_table_cells_fails(self):
        # ("d1d2", -1, 0) reads a real cell by negative indexing but is no
        # cell, so it constrains no assignment and must not validate
        exact = claimed_hardy_table()
        bogus = {("d1d2", -1, 0): Fraction(-1)}
        cert = LhvCertificate("infeasible", witness=InfeasibilityWitness(bogus))
        assert not validate_certificate(exact, cert)

    def test_sign_flipped_functional_fails(self):
        exact = claimed_hardy_table()
        cert = feasibility(exact)
        flipped = {cell: -c for cell, c in cert.witness.functional.items()}
        bad = LhvCertificate("infeasible", witness=InfeasibilityWitness(flipped))
        assert not validate_certificate(exact, bad)

    def test_witness_on_a_feasible_table_fails(self):
        table = table_of_model(random_model(3))
        cert = feasibility(claimed_hardy_table())
        assert not validate_certificate(table, cert)

    def test_certificate_payload_must_match_verdict(self):
        with pytest.raises(HardyLabError):
            LhvCertificate("feasible")
        with pytest.raises(HardyLabError):
            LhvCertificate("infeasible", model=LhvModel({ASSIGNMENTS[0]: Fraction(1)}))


class TestRelabelingSymmetry:
    @staticmethod
    def flip_observable(exact: dict, observable: str) -> dict:
        # flip the named observable's outcome in both contexts containing it
        out = {k: [row[:] for row in grid] for k, grid in exact.items()}
        for key in CONTEXT_KEYS:
            if observable == key[:2]:
                out[key] = [out[key][1], out[key][0]]
            if observable == key[2:]:
                out[key] = [list(reversed(row)) for row in out[key]]
        return out

    @pytest.mark.parametrize("observable", ["d1", "d2", "u1", "u2"])
    def test_feasibility_is_invariant(self, observable):
        infeasible = claimed_hardy_table()
        flipped = self.flip_observable(infeasible, observable)
        assert feasibility(flipped).verdict == "infeasible"

        feasible = table_of_model(random_model(21))
        flipped = self.flip_observable(feasible, observable)
        assert feasibility(flipped).verdict == "feasible"

    def test_flipped_table_gets_a_plain_functional_witness(self):
        # the flip destroys the canonical Hardy cell pattern, so the
        # witness must come from the simplex dual and still validate
        flipped = self.flip_observable(claimed_hardy_table(), "d1")
        cert = feasibility(flipped)
        assert cert.verdict == "infeasible"
        assert cert.witness.kind == "separating-functional"
        assert cert.witness.chain is None
        assert validate_certificate(flipped, cert)


class TestRationalization:
    def test_exact_dyadic_floats_pass(self):
        table = quantum_probability_table(PSIM, PSIM, Interpretation.FIXED_BASIS)
        exact = rationalize_table(table)
        assert exact["d1d2"][1][1] == Fraction(1, 16)
        assert exact["u1u2"][1][1] == 0

    def test_denominator_bound_is_enforced(self):
        # 3/2^21 is exactly representable but needs a denominator beyond 2^20
        bad = claimed_hardy_table()
        tweaked = {k: [[float(c) for c in row] for row in v] for k, v in bad.items()}
        tweaked["d1d2"][1][1] = float(Fraction(3, 2**21))
        tweaked["d1d2"][0][0] = 1.0 - tweaked["d1d2"][1][1] - 6.0 / 16.0
        with pytest.raises(RationalizationError):
            rationalize_table(tweaked)

    def test_context_must_sum_to_one(self):
        bad = claimed_hardy_table()
        bad["d1d2"][0][0] += Fraction(1, 32)
        with pytest.raises(MalformedTableError):
            rationalize_table(bad)

    def test_negative_entry_rejected(self):
        bad = claimed_hardy_table()
        bad["d1d2"][0][0] += 2 * bad["d1d2"][0][1]
        bad["d1d2"][0][1] = -bad["d1d2"][0][1]
        with pytest.raises(MalformedTableError):
            rationalize_table(bad)

    def test_missing_context_rejected(self):
        bad = dict(claimed_hardy_table())
        del bad["u1u2"]
        with pytest.raises(MalformedTableError):
            rationalize_table(bad)


# --- generated tables for the property tests --------------------------------


def normalized(parts: list[Fraction]) -> list[list[Fraction]]:
    """A 2x2 context from four nonnegative parts, scaled to sum to 1."""
    if sum(parts) == 0:
        parts = [Fraction(1), *parts[1:]]
    total = sum(parts)
    cells = [x / total for x in parts]
    return [cells[:2], cells[2:]]


def split_unit(den: int, cuts: list[int]) -> list[Fraction]:
    """The gaps between sorted cut points of [0, den], as fractions of den."""
    points = [0, *sorted(cuts), den]
    return [Fraction(b - a, den) for a, b in zip(points, points[1:])]


@st.composite
def local_mixtures(draw, dens, zeros=False):
    """The table of a random mixture, weight numerators over ``dens``."""
    nums = draw(st.lists(st.integers(0, 30), min_size=16, max_size=16))
    if zeros:
        nums = [n * draw(st.booleans()) for n in nums]
    raw = [Fraction(n, draw(dens)) for n in nums]
    if sum(raw) == 0:
        raw[draw(st.integers(0, 15))] = Fraction(1)
    total = sum(raw)
    return table_of_model(LhvModel({a: w / total for a, w in zip(ASSIGNMENTS, raw)}))


@st.composite
def independent_contexts(draw, parts):
    """Each context normalized on its own: generically signalling."""
    return {key: normalized([draw(parts) for _ in range(4)]) for key in CONTEXT_KEYS}


@st.composite
def hardy_pattern_tables(draw):
    """Hardy's three zeros with P(D1=1,D2=1) > 0: infeasible by construction."""
    part = st.integers(0, 20).map(Fraction)
    d1d2 = [draw(part) for _ in range(3)] + [draw(st.integers(1, 20).map(Fraction))]
    table = {"d1d2": normalized(d1d2)}
    for key, zero in (("d1u2", 2), ("u1d2", 1), ("u1u2", 3)):
        parts = [draw(part) for _ in range(4)]
        parts[zero] = Fraction(0)
        table[key] = normalized(parts)
    return table


@st.composite
def tables_at_the_bound(draw):
    """A table with denominators in [2^19, 2^20], written as floats and
    rationalized back: a local mixture over one denominator (so every cell
    stays within the bound) or four independent contexts."""

    def parts(count):
        den = draw(st.integers(2**19, 2**20))
        cuts = draw(st.lists(st.integers(0, den), min_size=count - 1, max_size=count - 1))
        return split_unit(den, cuts)

    if draw(st.booleans()):
        table = table_of_model(LhvModel(dict(zip(ASSIGNMENTS, parts(16)))))
    else:
        table = {key: [cells[:2], cells[2:]] for key in CONTEXT_KEYS for cells in [parts(4)]}
    return rationalize_table(
        {key: [[float(c) for c in row] for row in grid] for key, grid in table.items()}
    )


_COPRIME = st.sampled_from([1, 2**7, 3, 5, 7, 11, 13, 999_983, 9_999_991])
_SPARSE_PART = st.sampled_from([0, 0, 0, 1, 2, 5]).map(Fraction)

#: Table class -> strategy producing exact tables of that class.
TABLE_CLASSES = {
    "local-mixture": local_mixtures(st.integers(1, 50)),
    "hardy-pattern": hardy_pattern_tables(),
    "generic-signalling": independent_contexts(st.integers(0, 40).map(Fraction)),
    "floats-at-2^20": tables_at_the_bound(),
    "coprime-denominators": st.one_of(
        local_mixtures(_COPRIME),
        independent_contexts(st.builds(Fraction, st.integers(0, 40), _COPRIME)),
    ),
    "degenerate-zeros": st.one_of(
        local_mixtures(st.just(1), zeros=True), independent_contexts(_SPARSE_PART)
    ),
}


class TestIntegerSimplexMatchesReference:
    """The integer-preserving simplex against the Fraction tableau it replaced."""

    COLUMNS = [[Fraction(_INCIDENCE[cell][j]) for cell in CELLS] for j in range(16)]

    @pytest.mark.parametrize("name", sorted(TABLE_CLASSES))
    @settings(max_examples=350, deadline=None)
    @given(data=st.data())
    def test_same_primal_and_dual(self, name, data):
        exact = data.draw(TABLE_CLASSES[name])
        rhs = [exact[key][a][b] for (key, a, b) in CELLS]
        expected = oracle.phase1_simplex(self.COLUMNS, rhs)
        got = _phase1_simplex([_INCIDENCE[cell] for cell in CELLS], rhs)
        assert got == expected
        assert all(type(v) is Fraction for v in got[0] or got[1])
        event("feasible" if got[0] is not None else "infeasible")
        if name == "hardy-pattern":
            assert got[0] is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_primal_and_dual_on_integer_matrices(self, data):
        # on the incidence matrix nearly every pivot is 1, so the exact
        # division by a last pivot > 1 is exercised on general matrices
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        entry = st.integers(-3, 4)
        share = st.builds(Fraction, st.integers(0, 20), st.integers(1, 12))
        rows = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
        rhs = [data.draw(share) for _ in range(m)]
        columns = [[Fraction(row[j]) for row in rows] for j in range(n)]
        assert _phase1_simplex(rows, rhs) == oracle.phase1_simplex(columns, rhs)


#: Functional keys that name no cell; ("d1d2", -1, 0) still reads a real
#: cell by negative indexing.
NON_CELLS = [("d1d2", -1, 0), ("d1d2", 2, 0), ("d1u1", 0, 0)]


def tampered_model(weights: dict, kind: str, data) -> dict:
    """A copy of feasible weights broken in the way ``kind`` names."""
    weights = {a: weights.get(a, Fraction(0)) for a in ASSIGNMENTS}
    donor = data.draw(st.sampled_from([a for a, w in weights.items() if w > 0]))
    other = data.draw(st.sampled_from([a for a in ASSIGNMENTS if a != donor]))
    if kind == "move":
        moved = weights[donor] * data.draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
        weights[donor] -= moved
        weights[other] += moved
    elif kind == "nudge":
        weights[donor] += data.draw(st.sampled_from([1, -1])) * Fraction(
            1, data.draw(st.integers(1, 2**20))
        )
    elif kind == "negative":
        excess = Fraction(1, data.draw(st.integers(1, 1000)))
        weights[other] += weights[donor] + excess
        weights[donor] = -excess
    elif kind == "outside":
        weights[(2, 0, 0, 0)] = weights.pop(donor)
    return weights


def tampered_functional(functional: dict, kind: str, data) -> dict:
    """A copy of a separating functional broken in the way ``kind`` names."""
    functional = dict(functional)
    if kind == "sign-flip":
        return {cell: -c for cell, c in functional.items()}
    if kind == "nudge":
        cell = data.draw(st.sampled_from(CELLS))
        step = Fraction(data.draw(st.sampled_from([1, -1])), data.draw(st.integers(1, 64)))
        functional[cell] = functional.get(cell, Fraction(0)) + step
    elif kind == "non-cell":
        functional[data.draw(st.sampled_from(NON_CELLS))] = Fraction(-1)
    elif kind == "empty":
        functional = {}
    elif kind == "zero-valued":
        # one context's total minus another's: 0 on every table and on
        # every assignment, so only the strict "< 0" on the table rejects it
        first, second = data.draw(st.permutations(CONTEXT_KEYS))[:2]
        functional = {cell: Fraction(1) for cell in CELLS if cell[0] == first}
        functional.update({cell: Fraction(-1) for cell in CELLS if cell[0] == second})
    return functional


class TestIntegerValidatorMatchesReference:
    """The integer validator against the Fraction validator it replaced."""

    @pytest.mark.parametrize("name", sorted(TABLE_CLASSES))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_verdict_on_produced_and_tampered_certificates(self, name, data):
        exact = data.draw(TABLE_CLASSES[name])
        cert = feasibility(exact)
        assert validate_certificate(exact, cert)
        assert oracle.validate_certificate_reference(exact, cert)

        if cert.verdict == "feasible":
            kind = data.draw(st.sampled_from(["move", "nudge", "negative", "outside"]))
            weights = tampered_model(cert.model.weights, kind, data)
            tampered = LhvCertificate("feasible", model=LhvModel(cert.model.weights))
            # the model was valid when built; break it in place, as a caller could
            tampered.model.weights.clear()
            tampered.model.weights.update(weights)
            expected = False  # every kind changes some cell or breaks an invariant
        else:
            kind = data.draw(
                st.sampled_from(["sign-flip", "nudge", "non-cell", "empty", "zero-valued"])
            )
            functional = tampered_functional(cert.witness.functional, kind, data)
            tampered = LhvCertificate("infeasible", witness=InfeasibilityWitness(functional))
            expected = None if kind == "nudge" else False

        got = validate_certificate(exact, tampered)
        assert got == oracle.validate_certificate_reference(exact, tampered)
        if expected is not None:
            assert got == expected
        event(f"{cert.verdict}, {kind}: {got}")


class TestRationalizedOnce:
    """One ``feasibility`` or ``validate_certificate`` call rationalizes once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from hardylab import lhv

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return rationalize_table(*args, **kwargs)

        monkeypatch.setattr(lhv, "rationalize_table", counting)
        return calls

    @staticmethod
    def float_table(verdict: str):
        if verdict == "feasible":
            return quantum_probability_table(PSIM, PSIM, Interpretation.COLLAPSED_STATE)
        exact = claimed_hardy_table()
        return {key: [[float(c) for c in row] for row in grid] for key, grid in exact.items()}

    @pytest.mark.parametrize("verdict", ["feasible", "infeasible"])
    def test_feasibility_rationalizes_once(self, calls, verdict):
        assert feasibility(self.float_table(verdict)).verdict == verdict
        assert len(calls) == 1

    @pytest.mark.parametrize("verdict", ["feasible", "infeasible"])
    def test_validate_certificate_rationalizes_once(self, calls, verdict):
        table = self.float_table(verdict)
        cert = feasibility(table)
        calls.clear()
        assert validate_certificate(table, cert)
        assert len(calls) == 1


# --- Fine's theorem ---------------------------------------------------------

#: Alice measures d1 or u1, Bob d2 or u2; a context key joins the two names.
ALICE, BOB = ("d1", "u1"), ("d2", "u2")


def sign(outcome: int) -> int:
    return 1 if outcome == 1 else -1


def fine_local(exact: dict) -> bool:
    """Fine's theorem: local iff no-signalling and all 8 CHSH values <= 2."""
    for x in ALICE:
        first, second = (exact[x + y] for y in BOB)
        if any(sum(first[a]) != sum(second[a]) for a in (0, 1)):
            return False
    for y in BOB:
        first, second = (exact[x + y] for x in ALICE)
        if any(first[0][b] + first[1][b] != second[0][b] + second[1][b] for b in (0, 1)):
            return False
    corr = {
        key: sum(sign(a) * sign(b) * exact[key][a][b] for a in (0, 1) for b in (0, 1))
        for key in CONTEXT_KEYS
    }
    total = sum(corr.values())
    # the 8 CHSH expressions are +-(E00 + E01 + E10 + E11 - 2 E_xy)
    return all(abs(total - 2 * e) <= 2 for e in corr.values())


def no_signalling_table(m: dict, n: dict, t: dict) -> dict:
    """P(a,b|x,y) = (1 + s_a m_x + s_b n_y + s_a s_b E_xy) / 4.

    ``m`` and ``n`` are the marginals <A_x>, <B_y> in [-1, 1]; each
    correlator E_xy sits at the fraction ``t[xy]`` of the interval
    [|m_x + n_y| - 1, 1 - |m_x - n_y|] that keeps all four cells
    nonnegative.  The table is no-signalling by construction.
    """
    table = {}
    for x in ALICE:
        for y in BOB:
            lo, hi = abs(m[x] + n[y]) - 1, 1 - abs(m[x] - n[y])
            e = lo + t[x + y] * (hi - lo)
            table[x + y] = [
                [(1 + sign(a) * m[x] + sign(b) * n[y] + sign(a) * sign(b) * e) / 4
                 for b in (0, 1)]
                for a in (0, 1)
            ]
    return table


@st.composite
def no_signalling_tables(draw):
    den = draw(st.integers(1, 12))
    unit = st.integers(-den, den).map(lambda k: Fraction(k, den))
    # the ends of the correlator interval are where CHSH can fail
    share = st.one_of(
        st.sampled_from([Fraction(0), Fraction(1)]),
        st.integers(0, den).map(lambda k: Fraction(k, den)),
    )
    return no_signalling_table(
        {x: draw(unit) for x in ALICE},
        {y: draw(unit) for y in BOB},
        {key: draw(share) for key in CONTEXT_KEYS},
    )


class TestFineTheorem:
    """A third LHV oracle: no-signalling plus the 8 CHSH inequalities."""

    @settings(max_examples=300, deadline=None)
    @given(exact=st.one_of(no_signalling_tables(), TABLE_CLASSES["generic-signalling"]))
    def test_verdict_matches_fine(self, exact):
        local = fine_local(exact)
        assert (feasibility(exact).verdict == "feasible") == local
        event("local" if local else "not local")

    def test_pr_box_violates_chsh(self):
        # unbiased marginals, perfect correlation in three contexts and
        # perfect anticorrelation in u1u2: no-signalling with CHSH = 4
        zero, half = Fraction(0), Fraction(1, 2)
        box = no_signalling_table(
            dict.fromkeys(ALICE, zero),
            dict.fromkeys(BOB, zero),
            {"d1d2": 1, "d1u2": 1, "u1d2": 1, "u1u2": 0},
        )
        assert box["u1u2"] == [[zero, half], [half, zero]]
        assert not fine_local(box)
        assert feasibility(box).verdict == "infeasible"

    def test_construction_reaches_both_verdicts(self):
        # the generated no-signalling tables must exercise CHSH both ways
        rng = np.random.default_rng(5)
        verdicts = {"feasible": 0, "infeasible": 0}
        for _ in range(100):
            m = {x: Fraction(int(rng.integers(-1, 2)), 4) for x in ALICE}
            n = {y: Fraction(int(rng.integers(-1, 2)), 4) for y in BOB}
            t = {key: Fraction(int(rng.integers(0, 2))) for key in CONTEXT_KEYS}
            exact = no_signalling_table(m, n, t)
            verdict = feasibility(exact).verdict
            assert (verdict == "feasible") == fine_local(exact)
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 10
