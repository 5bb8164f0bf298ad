import copy
import json
import math
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hardylab import lhv
from hardylab.cli import main
from hardylab.core import HardyLabError
from hardylab.lhv import (
    ASSIGNMENTS,
    CELLS,
    MAX_DENOMINATOR,
    ExactTable,
    InfeasibilityWitness,
    LhvCertificate,
    LhvModel,
    MalformedTableError,
    RationalizationError,
    claimed_hardy_table,
    feasibility,
    _local_model,
    _nearest_rational,
    _validate_exact,
    rational_json,
    rationalize_table,
    replay_deductions,
    validate_certificate,
)
from hardylab.observables import (
    CONTEXT_KEYS,
    HardyClaimSet,
    Interpretation,
    audit_pair,
    context_observables,
    quantum_probability_table,
)
from hardylab.protocol import BELL_ORDER, BellIndex

import oracle
from oracle import fractions_built
from test_pool_digest import POOL

GOLDEN = Path(__file__).resolve().parent / "golden"

PSIM = BellIndex.PSI_MINUS

#: Floats that lie just beyond and just inside the default tolerance 1e-12 of
#: their nearest rational with denominator <= 2^20, with that rational: the
#: first 2.7e-17 beyond it, the second 1.5e-18 inside it.
BEYOND_TOLERANCE = (0.7018032530403948, Fraction(318472, 453791))
INSIDE_TOLERANCE = (0.1356465023366935, Fraction(4617, 34037))


def table_with_float_cell(cell: float, near: Fraction) -> dict:
    """A table whose d1d2 row 0 holds ``cell`` and the exact complement of
    ``near``; every other context is certain."""
    rest = 1 - near
    return {
        "d1d2": [[cell, {"num": rest.numerator, "den": rest.denominator}], [0, 0]],
        **{key: [[1, 0], [0, 0]] for key in CONTEXT_KEYS[1:]},
    }


def table_of_model(model: LhvModel) -> dict:
    return {
        key: [[oracle.cell_probability(model, (key, a, b)) for b in (0, 1)] for a in (0, 1)]
        for key in CONTEXT_KEYS
    }


def point_model(assignment) -> LhvModel:
    """All the weight on one assignment: its deterministic model."""
    return LhvModel([int(a == assignment) for a in ASSIGNMENTS], 1)


#: The weights of the model of (1, 1, 1, 1), in ASSIGNMENTS order, over den 1.
POINT = list(point_model((1, 1, 1, 1)).weights)


def model_of(weights: list[Fraction]) -> LhvModel:
    """The model of 16 Fraction weights summing to 1, in ASSIGNMENTS order,
    over the lcm of their denominators."""
    den = math.lcm(*(w.denominator for w in weights))
    return LhvModel([w.numerator * (den // w.denominator) for w in weights], den)


def random_model(seed: int) -> LhvModel:
    rng = np.random.default_rng(seed)
    raw = [int(x) for x in rng.integers(0, 20, size=16)]
    if sum(raw) == 0:
        raw[0] = 1
    return LhvModel(raw, sum(raw))


def grid(table) -> dict:
    """Any table as a grid of Fractions: each cell of its :class:`ExactTable`
    read as ``Fraction(n[cell], den)``."""
    exact = rationalize_table(table)
    n = oracle.cells(exact)
    return {
        key: [[Fraction(n[key, a, b], exact.den) for b in (0, 1)] for a in (0, 1)]
        for key in CONTEXT_KEYS
    }


def linprog_feasible(table) -> bool:
    """Independent feasibility oracle: float LP over the same polytope."""
    exact = rationalize_table(table)
    a_eq = [[float(oracle.hits(a, cell)) for a in oracle.ASSIGNMENTS] for cell in CELLS]
    b_eq = [float(Fraction(n, exact.den)) for n in exact.n]  # in CELLS order
    res = linprog(
        c=[0.0] * 16, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * 16, method="highs"
    )
    return res.status == 0


#: tests/golden/table.json: P(U1=1) is 1/4 in u1d2 but 1/2 in u1u2.
SIGNALLING = {
    "d1d2": [[Fraction(9, 16), Fraction(3, 16)], [Fraction(3, 16), Fraction(1, 16)]],
    "d1u2": [[Fraction(3, 8), Fraction(3, 8)], [Fraction(1, 8), Fraction(1, 8)]],
    "u1d2": [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 8)]],
    "u1u2": [[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)]],
}


#: The Hardy pattern on a signalling table: P(U2=1) is 1/2 in d1u2 but 1/4 in u1u2.
SIGNALLING_HARDY = {
    "d1d2": [[Fraction(9, 16), Fraction(3, 16)], [Fraction(3, 16), Fraction(1, 16)]],
    "d1u2": [[Fraction(1, 2), Fraction(1, 4)], [Fraction(0), Fraction(1, 4)]],
    "u1d2": [[Fraction(1, 2), Fraction(0)], [Fraction(1, 4), Fraction(1, 4)]],
    "u1u2": [[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 2), Fraction(0)]],
}


def noisy_pr_box(visibility: Fraction) -> dict:
    """The PR box mixed with uniform noise: no-signalling, CHSH = 4 v.

    The PR box (v = 1) has unbiased marginals, perfect correlation in three
    contexts and perfect anticorrelation in u1u2.
    """
    same, other = (1 + visibility) / 4, (1 - visibility) / 4
    return {
        key: [[other, same], [same, other]] if key == "u1u2" else [[same, other], [other, same]]
        for key in CONTEXT_KEYS
    }


PR_BOX = noisy_pr_box(Fraction(1))
#: tests/golden/table_chsh.json: CHSH = 3 and no zero cell.
NOISY_PR_BOX = noisy_pr_box(Fraction(3, 4))


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
        # a run needs a joint probability above the tolerance, not at it
        for tol in (0, 1e-12):
            assert replay_deductions(HardyClaimSet(tol, 1.0, 1.0, 0.0), tol).halted_at == 1

    def test_nonzero_u1u2_claim_blocks_step_four(self):
        trace = replay_deductions(HardyClaimSet(1 / 16, 1.0, 1.0, 0.25))
        assert not trace.contradiction
        assert trace.halted_at == 4

    def test_a_conditional_just_below_one_is_no_certainty(self):
        # 1 - 10^-20 rounds to 1.0 as a float, yet lies 10^-20 > 10^-30 from 1
        claims = HardyClaimSet(Fraction(1, 16), 1 - Fraction(1, 10**20), 1, 0)
        assert replay_deductions(claims, tol=1e-30).halted_at == 1

    def test_a_conditional_just_above_one_is_no_certainty_at_zero_tolerance(self):
        claims = HardyClaimSet(Fraction(1, 16), 1, 1 + Fraction(1, 10**20), 0)
        assert replay_deductions(claims, tol=0).halted_at == 3

    @pytest.mark.parametrize(
        "claims, halted_at",
        [
            (HardyClaimSet(math.nan, 1.0, 1.0, 0.0), 1),
            (HardyClaimSet(1 / 16, math.nan, 1.0, 0.0), 1),
            (HardyClaimSet(1 / 16, 1.0, math.inf, 0.0), 3),
            (HardyClaimSet(1 / 16, 1.0, 1.0, -math.inf), 4),
        ],
        ids=["nan-joint", "nan-conditional", "inf-conditional", "inf-joint"],
    )
    def test_a_nan_or_infinite_claim_fails_its_premise(self, claims, halted_at):
        assert replay_deductions(claims).halted_at == halted_at

    @pytest.mark.parametrize("tol", [0, 1e-12, 0.25, 0.5, 1])
    def test_certainty_steps_fire_exactly_when_the_audit_verdicts_pass(self, tol):
        # steps 1, 3 and 4 test c_d1u2, c_d2u1 and p_u1u2 against their
        # targets; each is reached only if the steps before it fired
        replayed = 0
        for interp in Interpretation:
            for i in BELL_ORDER:
                for j in BELL_ORDER:
                    report = audit_pair(i, j, interp, tol)
                    if not report.measured.p_joint > tol:
                        continue
                    trace = replay_deductions(report.measured, tol)
                    replayed += 1
                    for step, key in ((1, "c_d1u2"), (3, "c_d2u1"), (4, "p_u1u2")):
                        assert trace.steps[step - 1].fired is report.verdicts[key], (i, j, key)
                        if not report.verdicts[key]:
                            assert trace.halted_at == step
                            break
                    else:
                        assert trace.contradiction
        # every joint probability is 1/16
        assert replayed == (32 if tol < Fraction(1, 16) else 0)

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
        chain = cert.to_jsonable(exact)["witness"]["chain"]
        assert len(chain) == 4
        assert all(step["fired"] for step in chain)
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
        table = claimed_hardy_table(p)
        cert = feasibility(table)
        assert cert.witness.kind == "deduction-chain"
        chain = cert.to_jsonable(table)["witness"]["chain"]
        assert all(step["fired"] for step in chain)
        assert f"probability {p})" in chain[0]["detail"]

    @pytest.mark.parametrize(
        "p", [Fraction(1, 4), Fraction(1, 8), Fraction(3, 64), Fraction(1, 10**400)]
    )
    def test_the_paper_claims_witness_reports_the_p_of_each_table(self, p):
        # a witness holds no chain: on another claimed table it validates,
        # and its report replays that table's own p
        cert = feasibility(claimed_hardy_table())
        table = claimed_hardy_table(p)
        assert validate_certificate(table, cert)
        assert oracle.validate_certificate_reference(table, cert)
        first = cert.to_jsonable(table)["witness"]["chain"][0]
        assert first["fired"] and f"(probability {float(p) or p})" in first["detail"]

    def test_rejects_joint_weight_outside_range(self):
        with pytest.raises(HardyLabError):
            claimed_hardy_table(Fraction(1, 2))
        with pytest.raises(HardyLabError):
            claimed_hardy_table(Fraction(0))
        with pytest.raises(HardyLabError):  # too long to print: str() would raise
            claimed_hardy_table(Fraction(10**5000))


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
        for cell, n in oracle.cells(exact).items():
            assert oracle.cell_probability(cert.model, cell) == Fraction(n, exact.den)


class TestFeasibilityOnMixtures:
    def test_product_statistics_are_feasible(self):
        # deterministic local outcomes: a single assignment gets all weight
        model = point_model(ASSIGNMENTS[5])
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
        # these exercise the no-signalling witness against the oracle
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
        # 1/1000 of the weight moves from one assignment to another
        model = random_model(7)
        table = table_of_model(model)
        cert = feasibility(table)
        weights = [1000 * w for w in cert.model.weights]
        nonzero = next(i for i, w in enumerate(weights) if w > cert.model.den)
        weights[nonzero] -= cert.model.den
        weights[nonzero - 1] += cert.model.den
        tampered = LhvCertificate("feasible", model=LhvModel(weights, 1000 * cert.model.den))
        assert not validate_certificate(table, tampered)

    def test_uncompensated_tampering_violates_model_invariants(self):
        model = random_model(9)
        weights = list(model.weights)
        weights[0] += 1
        with pytest.raises(HardyLabError, match="sum"):
            LhvModel(weights, model.den)

    def test_negative_weight_violates_model_invariants(self):
        # sums to exactly 1, one weight below 0
        with pytest.raises(HardyLabError, match="nonnegative"):
            LhvModel([8, -3, 1, *[0] * 13], 6)

    def test_all_zero_functional_fails(self):
        exact = claimed_hardy_table()
        cert = LhvCertificate(
            "infeasible", witness=InfeasibilityWitness("deduction-chain", functional={})
        )
        assert not validate_certificate(exact, cert)

    def test_functional_outside_the_table_cells_fails(self):
        # ("d1d2", -1, 0) reads a real cell by negative indexing but is no
        # cell, so it constrains no assignment and must not validate
        exact = claimed_hardy_table()
        bogus = {("d1d2", -1, 0): Fraction(-1)}
        cert = LhvCertificate("infeasible", witness=InfeasibilityWitness("deduction-chain", bogus))
        assert not validate_certificate(exact, cert)

    def test_sign_flipped_functional_fails(self):
        exact = claimed_hardy_table()
        cert = feasibility(exact)
        flipped = {cell: -c for cell, c in cert.witness.functional.items()}
        bad = LhvCertificate("infeasible", witness=cert.witness._replace(functional=flipped))
        assert not validate_certificate(exact, bad)

    def test_an_unknown_kind_fails(self):
        witness = feasibility(SIGNALLING).witness._replace(kind="separating-functional")
        assert not validate_certificate(SIGNALLING, LhvCertificate("infeasible", witness=witness))

    def test_witness_on_a_feasible_table_fails(self):
        table = table_of_model(random_model(3))
        cert = feasibility(claimed_hardy_table())
        assert not validate_certificate(table, cert)

    @pytest.mark.parametrize(
        "value", [1.0, "1", Fraction(1), True, 1.5, "x", math.nan, math.inf],
        ids=["float-1", "string-1", "fraction-1", "true", "1.5", "x", "nan", "inf"],
    )
    def test_a_weight_or_coefficient_that_is_not_an_int_is_refused(self, value):
        # each value stands where the int 1 makes a valid certificate: the
        # whole weight of a deterministic model, or the coefficient of a
        # cell where Hardy's functional has 1
        LhvModel(POINT, 1)
        with pytest.raises(HardyLabError, match="int weights"):
            LhvModel([value if w else 0 for w in POINT], 1)

        table = claimed_hardy_table()
        witness = feasibility(table).witness

        def validates(v) -> tuple[bool, bool]:
            functional = {**witness.functional, ("d1u2", 1, 0): v}
            cert = LhvCertificate("infeasible", witness=witness._replace(functional=functional))
            return (validate_certificate(table, cert),
                    oracle.validate_certificate_reference(table, cert))

        assert validates(1) == (True, True)
        assert validates(value) == (False, False)

    @pytest.mark.parametrize(
        "table, kind",
        [
            (NOISY_PR_BOX, "no-signalling"),
            (NOISY_PR_BOX, "deduction-chain"),
            (SIGNALLING, "chsh-facet"),
            (SIGNALLING_HARDY, "chsh-facet"),
        ],
        ids=["facet-as-signalling", "facet-as-chain", "signalling-as-facet",
             "chain-as-facet-on-a-signalling-table"],
    )
    def test_a_witness_under_a_name_the_table_does_not_earn_fails(self, table, kind):
        # each renamed witness still separates the table from every
        # assignment, so only its name can fail it
        witness = feasibility(table).witness
        forged = witness._replace(kind=kind)
        for validate in (validate_certificate, oracle.validate_certificate_reference):
            assert validate(table, LhvCertificate("infeasible", witness=witness))
            assert not validate(table, LhvCertificate("infeasible", witness=forged))

    def test_certificate_payload_must_match_verdict(self):
        with pytest.raises(HardyLabError):
            LhvCertificate("feasible")
        with pytest.raises(HardyLabError):
            LhvCertificate("infeasible", model=point_model(ASSIGNMENTS[0]))
        with pytest.raises(HardyLabError):  # a mapping of weights is no model
            LhvCertificate("feasible", model={ASSIGNMENTS[0]: 1})
        with pytest.raises(HardyLabError):  # too long to print: repr() would raise
            LhvCertificate(10**5000)


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
        # the flip destroys the canonical Hardy cell pattern, so the witness
        # is the CHSH facet it became: the table is no-signalling, with
        # CHSH = 2 + 4 P(D1=1,D2=1) = 9/4
        flipped = self.flip_observable(claimed_hardy_table(), "d1")
        cert = feasibility(flipped)
        assert cert.verdict == "infeasible"
        report = cert.to_jsonable(flipped)["witness"]
        assert (report["kind"], report["chsh"]) == ("chsh-facet", {"num": 9, "den": 4})
        assert "chain" not in report
        assert validate_certificate(flipped, cert)


class FractionSubclass(Fraction):
    """A Fraction subclass, as a library caller may pass one."""


class Outcome(IntEnum):
    """An int subclass: refused, as a bool is."""

    ONE = 1


#: Each cell kind: how it writes a Fraction cell, and the type a refused
#: kind is named by (None: accepted, reading as the Fraction).
CELL_KINDS = {
    "float": (float, None),
    "numpy-float64": (np.float64, None),
    "fraction": (Fraction, None),
    "fraction-subclass": (FractionSubclass, None),
    "true": (lambda c: True, "bool"),
    "int-enum": (lambda c: Outcome.ONE, "Outcome"),
    "nan": (lambda c: float("nan"), "float"),
    "-inf": (lambda c: float("-inf"), "float"),
}


class TestRationalization:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_each_cell_kind_reads_as_its_rational_or_is_named(self, kind):
        # an accepted kind writes every cell of the claimed table, a refused
        # one the cell [1][0] of u1d2 only; floats are tested first, so a
        # float subclass must still be a float and a Fraction subclass a Fraction
        write, refused = CELL_KINDS[kind]
        table, expected = claimed_hardy_table(), rationalize_table(claimed_hardy_table())
        if refused is None:
            exact = rationalize_table({key: [[write(c) for c in row] for row in grid]
                                       for key, grid in table.items()})
            assert (exact.n, exact.den) == (expected.n, expected.den)
            return
        table["u1d2"][1][0] = write(table["u1d2"][1][0])
        with pytest.raises(MalformedTableError) as error:
            rationalize_table(table)
        assert str(error.value) == (
            f"bad cell [1][0] in context 'u1d2': a {refused} "
            "(want a Fraction, an int, a finite float, or {num, den} with den > 0)"
        )

    def test_repeated_floats_among_other_kinds_read_as_their_fractions(self):
        # cells cycle through five kinds, zeros are ints, and some float repeats
        exact = quantum_probability_table(PSIM, PSIM, Interpretation.COLLAPSED_STATE)
        kinds = (float, Fraction, np.float64, float, rational_json)
        cells = [Fraction(n, exact.den) for n in exact.n]
        written = [kinds[i % 5](c) if c else 0 for i, c in enumerate(cells)]
        floats = [c for c in written if type(c) is float]
        assert len(set(floats)) < len(floats) and 0 in written
        table = {key: [written[i : i + 2], written[i + 2 : i + 4]]
                 for key, i in zip(CONTEXT_KEYS, range(0, 16, 4))}
        twin = {key: [cells[i : i + 2], cells[i + 2 : i + 4]]
                for key, i in zip(CONTEXT_KEYS, range(0, 16, 4))}
        got, expected = rationalize_table(table), rationalize_table(twin)
        assert (got.n, got.den) == (expected.n, expected.den) == (exact.n, exact.den)

    @pytest.mark.parametrize("junk", [[0.25], {"num": 1}], ids=["list", "dict"])
    def test_a_junk_cell_after_a_repeated_float_is_named(self, junk):
        # the junk cell is not hashed, so it raises no TypeError
        table = {key: [[0.25, 0.25], [0.25, 0.25]] for key in CONTEXT_KEYS}
        table["u1d2"][1][0] = junk
        with pytest.raises(MalformedTableError) as error:
            rationalize_table(table)
        assert str(error.value) == (
            f"bad cell [1][0] in context 'u1d2': a {type(junk).__name__} "
            "(want a Fraction, an int, a finite float, or {num, den} with den > 0)"
        )

    def test_a_float_cell_just_beyond_the_tolerance_is_refused(self):
        cell, near = BEYOND_TOLERANCE
        assert nearest(cell) == stdlib_nearest(cell) == near.as_integer_ratio()
        assert abs(Fraction(cell) - near) > Fraction(1e-12)
        with pytest.raises(RationalizationError):
            rationalize_table(table_with_float_cell(cell, near), 1e-12)

    def test_a_float_cell_just_inside_the_tolerance_reads_as_its_rational(self):
        cell, near = INSIDE_TOLERANCE
        assert nearest(cell) == stdlib_nearest(cell) == near.as_integer_ratio()
        assert abs(Fraction(cell) - near) <= Fraction(1e-12)
        exact = rationalize_table(table_with_float_cell(cell, near), 1e-12)
        assert Fraction(oracle.cells(exact)["d1d2", 0, 0], exact.den) == near

    def test_exact_dyadic_floats_pass(self):
        table = quantum_probability_table(PSIM, PSIM, Interpretation.FIXED_BASIS)
        exact = rationalize_table(table)
        n = oracle.cells(exact)
        assert Fraction(n["d1d2", 1, 1], exact.den) == Fraction(1, 16)
        assert n["u1u2", 1, 1] == 0

    def test_denominator_bound_is_enforced(self):
        # 3/2^21 is exactly representable but needs a denominator beyond 2^20
        bad = claimed_hardy_table()
        tweaked = {k: [[float(c) for c in row] for row in v] for k, v in bad.items()}
        tweaked["d1d2"][1][1] = float(Fraction(3, 2**21))
        tweaked["d1d2"][0][0] = 1.0 - tweaked["d1d2"][1][1] - 6.0 / 16.0
        with pytest.raises(RationalizationError):
            rationalize_table(tweaked)

    def test_unreduced_num_den_cells_read_as_their_fractions(self):
        table = claimed_hardy_table()
        tripled = {key: [[{"num": 3 * c.numerator, "den": 3 * c.denominator} for c in row]
                         for row in grid] for key, grid in table.items()}
        exact, expected = rationalize_table(tripled), rationalize_table(table)
        assert (exact.n, exact.den) == (expected.n, expected.den)

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


#: A deterministic table: each context has a 1 at [1][1] and 0 elsewhere.
DETERMINISTIC = table_of_model(LhvModel(POINT, 1))


def with_cell(a: int, b: int, value) -> dict:
    table = {key: [list(row) for row in grid] for key, grid in DETERMINISTIC.items()}
    table["d1d2"][a][b] = value
    return table


class TestOneTableContract:
    """``feasibility`` and ``validate_certificate`` share one table contract.

    The bool and numeric-string cells stand where 1 and 0 are, so read as
    numbers they would make a valid table.
    """

    @pytest.mark.parametrize(
        "table",
        [
            with_cell(1, 1, True),
            with_cell(0, 0, False),
            with_cell(1, 1, "1"),
            with_cell(0, 0, "0.0"),
            with_cell(1, 1, None),
            with_cell(1, 1, float("nan")),
            with_cell(1, 1, float("inf")),
            with_cell(0, 0, float("-inf")),
            with_cell(0, 0, -(10**5000)),
            {**DETERMINISTIC, "u1d2": 5},
            {**DETERMINISTIC, "u1d2": None},
            {**DETERMINISTIC, "u1d2": [[1, 0], 7]},
            # str() of an int over 4300 digits raises, so no message may print one
            with_cell(0, 0, {"num": 10**5000, "den": 0}),
            with_cell(0, 0, [10**5000]),
            {**DETERMINISTIC, "d1d2": [[10**5000], [0, 1]]},
        ],
        ids=["true", "false", "string-1", "string-0.0", "none", "nan", "inf", "-inf",
             "negative-5001-digits", "context-5", "context-none", "ragged-context",
             "num-den-5001-digits-over-0", "cell-list-5001-digits", "row-5001-digits"],
    )
    def test_a_malformed_table_is_rejected_by_both(self, table):
        cert = feasibility(DETERMINISTIC)
        assert cert.verdict == "feasible"
        assert validate_certificate(table, cert) is False
        with pytest.raises(MalformedTableError):
            feasibility(table)


#: The numerators of DETERMINISTIC's ExactTable, in CELLS order, over den 1.
ONES = [int(cell[1:] == (1, 1)) for cell in CELLS]


def changed(index: int, value) -> list:
    """ONES with the numerator at ``index`` set to ``value``."""
    return [value if i == index else v for i, v in enumerate(ONES)]


def num_den_table(numerators: list, den) -> dict:
    """The cells ``numerators``, in CELLS order, over ``den`` as a table of
    ``{num, den}`` cells."""
    n = dict(zip(CELLS, numerators))
    return {key: [[{"num": n[key, a, b], "den": den} for b in (0, 1)] for a in (0, 1)]
            for key in CONTEXT_KEYS}


#: (numerators, den) pairs that break the ExactTable contract, and whether
#: the same cells can be written as a table of {num, den} cells.
BROKEN_FORMS = {
    "den-0": (ONES, 0, True),
    "zeros-over-den-0": ([0] * 16, 0, True),
    "den-negative": ([-v for v in ONES], -1, True),
    "den-float": (ONES, 1.0, True),
    "den-bool": (ONES, True, True),
    "missing-cell": (ONES[:-1], 1, False),
    "extra-cell": (ONES + [0], 1, False),
    "negative-cell": ([-1, 1, *ONES[2:]], 1, True),
    "float-cell": (changed(3, 1.0), 1, True),
    "bool-cell": (changed(3, True), 1, True),
    "fraction-cell": (changed(3, Fraction(1)), 1, True),
    "context-sums-to-2": (changed(8, 1), 1, True),
    "context-sums-to-0": (changed(11, 0), 1, True),
    "den-not-least": ([2 * v for v in ONES], 2, False),
    "a-mapping": (dict(zip(CELLS, ONES)), 1, False),
    "none": (None, 1, False),
}


class TestExactTableContract:
    """An :class:`ExactTable` holds only a valid table in its one form: a
    hand-built one that breaks the contract cannot be built."""

    @pytest.mark.parametrize("name", sorted(BROKEN_FORMS))
    def test_a_broken_form_cannot_be_built(self, name):
        numerators, den, _ = BROKEN_FORMS[name]
        with pytest.raises(MalformedTableError):
            ExactTable(numerators, den)

    @pytest.mark.parametrize("name", sorted(k for k, v in BROKEN_FORMS.items() if v[2]))
    def test_its_cells_as_a_table_are_refused_by_both(self, name):
        table = num_den_table(*BROKEN_FORMS[name][:2])
        assert validate_certificate(table, feasibility(DETERMINISTIC)) is False
        with pytest.raises(MalformedTableError):
            feasibility(table)

    def test_a_built_form_is_the_parse_and_cannot_be_changed(self):
        exact = ExactTable(ONES, 1)
        # n is the tuple of the numerators in CELLS order
        assert (type(exact.n), exact.n, exact.den) == (tuple, tuple(ONES), 1)
        assert oracle.cells(exact) == dict(zip(CELLS, ONES))
        parsed = rationalize_table(DETERMINISTIC)
        assert (parsed.n, parsed.den) == (exact.n, exact.den)
        with pytest.raises(TypeError):
            exact.n[CELLS.index(("d1d2", 1, 1))] = 2
        with pytest.raises(AttributeError):
            exact.n.clear()
        with pytest.raises(AttributeError):
            exact.den = 2
        assert validate_certificate(exact, feasibility(exact))

    @pytest.mark.parametrize("key", CONTEXT_KEYS)
    @pytest.mark.parametrize(
        "context, later, message",
        [
            ([-1, 0, 1, 1], [0, 0, 1, 1], "negative entry in context {!r}"),
            ([-1, 0, 0, 1], [1, 0, 0, 0], "negative entry in context {!r}"),
            ([0, 0, 1, 1], [-1, 0, 1, 1], "context {!r} does not sum to 1"),
            ([1, 0, 0, 1], [1, 0, 0, 0], "context {!r} does not sum to 1"),
            ([0, 0, 0, 0], [1, 0, 0, 0], "context {!r} does not sum to 1"),
            ([0, 0, 0, 0], [0, 0, 0, 0], "context {!r} does not sum to 1"),
            ([0, 1, 1, 1], [1, 0, 0, 0], "context {!r} does not sum to 1"),
        ],
        ids=["negative-then-sum-2", "negative-summing-to-0", "sum-2-then-negative",
             "sum-2", "sum-0", "sum-0-and-every-later-one", "sum-3-or-1-with-a-cell-negated"],
    )
    def test_the_first_broken_context_is_named(self, key, context, later, message):
        # every context before ``key`` is [1, 0, 0, 0] and every one after it
        # ``later``; only ``key``'s may be named.  A broken context whose sum
        # is off by a neighbouring cell, equals the sums after it, or would
        # be 1 with any one of its last three cells negated, must not slip
        # past a check of all four sums at once.  The CLI prints this
        # message for a file: table.
        k = CONTEXT_KEYS.index(key)
        numerators = [1, 0, 0, 0] * k + context + later * (3 - k)
        with pytest.raises(MalformedTableError) as error:
            ExactTable(numerators, 1)
        assert str(error.value) == message.format(key)
        with pytest.raises(MalformedTableError) as error:
            feasibility(num_den_table(numerators, 1))
        assert str(error.value) == message.format(key)


#: (numerators, den) pairs that break the LhvModel contract.
BROKEN_MODELS = {
    "bool-weight": ([*POINT[:-1], True], 1),
    "float-weight": ([*POINT[:-1], 1.0], 1),
    "fraction-weight": ([*POINT[:-1], Fraction(1)], 1),
    "negative-weight": ([*POINT[:-2], -1, 2], 1),
    "15-weights": (POINT[1:], 1),
    "17-weights": ([0, *POINT], 1),
    "sum-below-den": (POINT, 2),
    "sum-above-den": ([1, *POINT[1:]], 1),
    "den-0": ([0] * 16, 0),
    "den-negative": ([*POINT[:-1], -1], -1),
    "den-bool": (POINT, True),
    "a-mapping": (dict(zip(ASSIGNMENTS, POINT)), 1),
    "none": (None, 1),
}


class TestLhvModelContract:
    """An :class:`LhvModel` holds only a mixture in its one form, 16 int
    weights over ``den``: a hand-built one that breaks the contract cannot
    be built."""

    @pytest.mark.parametrize("name", sorted(BROKEN_MODELS))
    def test_a_broken_form_cannot_be_built(self, name):
        numerators, den = BROKEN_MODELS[name]
        with pytest.raises(HardyLabError):
            LhvModel(numerators, den)

    def test_a_built_model_is_the_decision_and_cannot_be_changed(self):
        model = LhvModel(POINT, 1)
        # weights is the tuple of the weights in ASSIGNMENTS order
        assert (type(model.weights), model.weights, model.den) == (tuple, tuple(POINT), 1)
        assert oracle.weights(model) == dict(zip(ASSIGNMENTS, POINT))
        cert = feasibility(DETERMINISTIC)
        assert (cert.model.weights, cert.model.den) == (model.weights, model.den)
        with pytest.raises(TypeError):
            model.weights[ASSIGNMENTS.index((1, 1, 1, 1))] = 0
        with pytest.raises(AttributeError):
            model.weights.clear()
        with pytest.raises(AttributeError):
            model.den = 2
        assert validate_certificate(DETERMINISTIC, LhvCertificate("feasible", model=model))

    #: A fresh table of each witness kind on each call; the noisy PR box is
    #: tests/golden/table_chsh.json.
    WITNESS_TABLES = {
        "deduction-chain": claimed_hardy_table,
        "no-signalling": lambda: copy.deepcopy(SIGNALLING),
        "chsh-facet": lambda: noisy_pr_box(Fraction(3, 4)),
    }

    @pytest.mark.parametrize("kind", sorted(WITNESS_TABLES))
    def test_a_returned_functional_cannot_be_changed(self, kind):
        # every witness holds a shared constant: a write that went through
        # would corrupt every later certificate of that functional
        table = self.WITNESS_TABLES[kind]()
        cert = feasibility(table)
        functional, before = dict(cert.witness.functional), cert.to_jsonable(table)
        assert cert.witness.kind == kind
        for cell, c in functional.items():
            with pytest.raises(TypeError):
                cert.witness.functional[cell] = c + 1
        with pytest.raises(TypeError):
            cert.witness.functional[CELLS[0]] = 1
        assert cert.to_jsonable(table) == before
        assert validate_certificate(table, cert)
        assert feasibility(self.WITNESS_TABLES[kind]()).witness.functional == functional

    def test_every_named_functional_is_a_read_only_constant(self):
        named = [lhv._HARDY_FUNCTIONAL, *lhv._MARGINAL_DIFFERENCES, *lhv._chsh_facets()]
        assert len(named) == 1 + 8 + 64
        assert all(type(f) is MappingProxyType for f in named)
        # a returned witness holds the constant itself, not a copy
        for make in self.WITNESS_TABLES.values():
            functional = feasibility(make()).witness.functional
            assert any(functional is f for f in named)


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
    return table_of_model(model_of([w / total for w in raw]))


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
        table = table_of_model(model_of(parts(16)))
    else:
        table = {key: [cells[:2], cells[2:]] for key in CONTEXT_KEYS for cells in [parts(4)]}
    return rationalize_table(
        {key: [[float(c) for c in row] for row in grid] for key, grid in table.items()}
    )


# Fine's theorem, written out on Fractions as an independent LHV oracle.

#: Alice measures d1 or u1, Bob d2 or u2; a context key joins the two names.
ALICE, BOB = ("d1", "u1"), ("d2", "u2")


def sign(outcome: int) -> int:
    return 1 if outcome == 1 else -1


def marginals(exact: dict, observable: str) -> tuple[Fraction, Fraction]:
    """P(observable = 1) in each of the two contexts that measure it."""
    if observable in ALICE:
        return tuple(sum(exact[observable + y][1]) for y in BOB)
    return tuple(exact[x + observable][0][1] + exact[x + observable][1][1] for x in ALICE)


def signals(exact: dict) -> bool:
    """Whether some observable's marginal differs between its two contexts."""
    return any(len(set(marginals(exact, o))) > 1 for o in ALICE + BOB)


def rational(value: dict) -> Fraction:
    """A ``{num, den}`` value of a report as a Fraction."""
    return Fraction(value["num"], value["den"])


def chsh_value(exact: dict) -> Fraction:
    """The largest of the 8 CHSH values."""
    corr = {
        key: sum(sign(a) * sign(b) * exact[key][a][b] for a in (0, 1) for b in (0, 1))
        for key in CONTEXT_KEYS
    }
    total = sum(corr.values())
    # the 8 CHSH expressions are +-(E00 + E01 + E10 + E11 - 2 E_xy)
    return max(abs(total - 2 * e) for e in corr.values())


def fine_local(exact: dict) -> bool:
    """Fine's theorem: local iff no-signalling and all 8 CHSH values <= 2."""
    return not signals(exact) and chsh_value(exact) <= 2


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
    "no-signalling": no_signalling_tables(),
}


class TestSignallingChoiceMatchesReference:
    """The signalling witness read off the four marginal gaps against the
    first of the 8 marginal differences that is < 0 on the table."""

    @pytest.mark.parametrize("name", sorted(TABLE_CLASSES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_functional_or_none(self, name, data):
        n = rationalize_table(data.draw(TABLE_CLASSES[name])).n
        got = lhv._signalling_witness(n)
        assert got == oracle.signalling_witness_reference(n)
        event("no-signalling" if got is None else "signalling")


class TestLocalModelMatchesReference:
    """The chord-gluing model against the Fraction simplex's verdict and
    the Fraction validator."""

    COLUMNS = [[Fraction(oracle.hits(a, cell)) for cell in CELLS] for a in oracle.ASSIGNMENTS]

    @pytest.mark.parametrize("name", sorted(TABLE_CLASSES))
    @settings(max_examples=350, deadline=None)
    @given(data=st.data())
    def test_same_verdict_and_a_valid_model(self, name, data):
        exact = data.draw(TABLE_CLASSES[name])
        form = rationalize_table(exact)
        cells = [Fraction(n, form.den) for n in form.n]  # in CELLS order
        x, _ = oracle.phase1_simplex(self.COLUMNS, cells)
        cert = feasibility(exact)
        assert (cert.verdict == "feasible") == (x is not None)
        event(cert.verdict)
        if name == "hardy-pattern":
            assert x is None
        if x is None:
            return
        weights = _local_model(form.n, form.den)
        assert (weights, form.den) == (list(cert.model.weights), cert.model.den)
        assert _validate_exact(form, cert)
        assert oracle.validate_certificate_reference(exact, cert)
        assert all(type(w) is int for w in weights)
        assert sum(w != 0 for w in weights) <= 12

    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_a_deterministic_table_glues_back_to_its_assignment(self, assignment):
        # the weight of (d1, d2, u1, u2) sits at 8*d1 + 4*d2 + 2*u1 + u2
        form = rationalize_table(table_of_model(point_model(assignment)))
        assert form.den == 1
        assert _local_model(form.n, form.den) == [int(a == assignment) for a in ASSIGNMENTS]

    @settings(max_examples=350, deadline=None)
    @given(exact=no_signalling_tables())
    def test_a_model_exists_iff_fine_says_local(self, exact):
        # Fine's theorem, checked constructively
        local = fine_local(exact)
        form = rationalize_table(exact)
        weights = _local_model(form.n, form.den)
        assert (weights is not None) == local
        event("local" if local else "not local")


#: Functional keys that name no cell; ("d1d2", -1, 0) still reads a real
#: cell by negative indexing.
NON_CELLS = [("d1d2", -1, 0), ("d1d2", 2, 0), ("d1u1", 0, 0)]


def decided_without_model(table: dict) -> LhvCertificate:
    """``feasibility(table)`` with a model builder that raises if it is called."""

    def no_model(*args):
        raise AssertionError("the model builder ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhv, "_local_model", no_model)
        return feasibility(table)


def decided_with_builds(table: dict) -> tuple[LhvCertificate, list]:
    """``feasibility(table)``, and what each model-builder call returned."""
    built = []

    def recording(*args):
        built.append(_local_model(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhv, "_local_model", recording)
        return feasibility(table), built


class TestHardyPatternDecidesAlone:
    """A table showing the Hardy pattern is settled before a model is built."""

    def test_claimed_table(self):
        table = claimed_hardy_table()
        cert = decided_without_model(table)
        assert cert.witness.kind == "deduction-chain"
        assert cert.to_jsonable(table) == feasibility(table).to_jsonable(table)

    @settings(max_examples=200, deadline=None)
    @given(table=hardy_pattern_tables())
    def test_drawn_pattern_tables(self, table):
        cert = decided_without_model(table)
        assert cert.witness.kind == "deduction-chain"
        assert cert.to_jsonable(table) == feasibility(table).to_jsonable(table)
        assert validate_certificate(table, cert)

    def test_other_tables_still_reach_the_model_builder(self):
        with pytest.raises(AssertionError, match="the model builder ran"):
            decided_without_model(
                quantum_probability_table(PSIM, PSIM, Interpretation.FIXED_BASIS)
            )


def nearest(value: float) -> tuple[int, int]:
    """The package's nearest rational to a float, as ``rationalize_table`` calls it."""
    return _nearest_rational(*value.as_integer_ratio())


def stdlib_nearest(value: float) -> tuple[int, int]:
    return Fraction(value).limit_denominator(MAX_DENOMINATOR).as_integer_ratio()


class TestNearestRational:
    """The integer rationalization of a float cell against the stdlib's."""

    @settings(max_examples=2000, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_the_stdlib(self, value):
        got = nearest(value)
        assert got == stdlib_nearest(value)
        assert [type(x) for x in got] == [int, int]

    @pytest.mark.parametrize(
        "value",
        [
            # n +- 2**-21 is midway between the integer and the nearest
            # fraction over 2**20: a tie, which goes to the integer
            *(n + d for n in range(-2, 3) for d in (2**-21, -(2**-21))),
            0.0,
            -0.0,
            5e-324,  # the smallest subnormal
            2.225073858507201e-308,  # the largest subnormal
            1 / 2**20,
            1 / (2**20 + 1),
            1 / (2**20 - 1),
            3 * 2**-22,
            # a convergent's denominator is exactly 2**20, the bound itself
            3 * 2**-20 + 2**-70,
            3 * 2**-20 - 2**-70,
            1 - 3 * 2**-20 + 2**-60,
            0.1,
            1 / 3,
            1e300,
        ],
    )
    def test_explicit_cases(self, value):
        assert nearest(value) == stdlib_nearest(value)

    def test_ties_go_to_the_convergent(self):
        assert nearest(2**-21) == (0, 1)
        assert nearest(1 - 2**-21) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(exact=tables_at_the_bound())
    def test_cells_of_tables_at_the_bound(self, exact):
        for n in exact.n:
            value = Fraction(n, exact.den)
            assert nearest(float(value)) == stdlib_nearest(float(value)) == value.as_integer_ratio()


def tampered_model(model: LhvModel, kind: str, data) -> tuple[list, int]:
    """A model's ``(numerators, den)`` broken in the way ``kind`` names: a
    ``move`` keeps the invariants, every other kind breaks one.  The model
    is first put over ``k * den``, so that one unit is 1/(k * den)."""
    k = data.draw(st.integers(1, 2**20 if kind == "nudge" else 1000))
    weights, den = [k * w for w in model.weights], k * model.den
    donor = data.draw(st.sampled_from([i for i, w in enumerate(weights) if w > 0]))
    other = data.draw(st.sampled_from([i for i in range(16) if i != donor]))
    if kind == "move":  # some or all of the donor's weight
        moved = data.draw(st.integers(1, weights[donor]))
        weights[donor] -= moved
        weights[other] += moved
    elif kind == "nudge":
        weights[donor] += data.draw(st.sampled_from([1, -1]))
    elif kind == "negative":
        weights[other] += weights[donor] + 1
        weights[donor] = -1
    elif kind == "outside":  # the donor's weight on a 17th assignment
        weights.append(weights[donor])
        weights[donor] = 0
    return weights, den


def tampered_functional(functional: dict, kind: str, data) -> dict:
    """A copy of a separating functional broken in the way ``kind`` names."""
    functional = dict(functional)
    if kind == "sign-flip":
        return {cell: -c for cell, c in functional.items()}
    if kind == "nudge":
        cell = data.draw(st.sampled_from(CELLS))
        step = data.draw(st.sampled_from([1, -1])) * data.draw(st.integers(1, 64))
        functional[cell] = functional.get(cell, 0) + step
    elif kind == "non-cell":
        functional[data.draw(st.sampled_from(NON_CELLS))] = -1
    elif kind == "empty":
        functional = {}
    elif kind == "zero-valued":
        # one context's total minus another's: 0 on every table and on
        # every assignment, so only the strict "< 0" on the table rejects it
        first, second = data.draw(st.permutations(CONTEXT_KEYS))[:2]
        functional = {cell: 1 for cell in CELLS if cell[0] == first}
        functional.update({cell: -1 for cell in CELLS if cell[0] == second})
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
            weights, den = tampered_model(cert.model, kind, data)
            if kind != "move":  # a broken invariant: no such model can be built
                with pytest.raises(HardyLabError):
                    LhvModel(weights, den)
                event(f"feasible, {kind}: not built")
                return
            tampered = LhvCertificate("feasible", model=LhvModel(weights, den))
            expected = False  # a moved weight changes some cell
        else:
            witness = cert.witness
            event(f"witness {witness.kind}")
            kinds = ["sign-flip", "nudge", "non-cell", "empty", "zero-valued", "rename"]
            kind = data.draw(st.sampled_from(kinds))
            if kind == "rename":
                others = {"deduction-chain", "no-signalling", "chsh-facet"} - {witness.kind}
                witness = witness._replace(kind=data.draw(st.sampled_from(sorted(others))))
            else:
                functional = tampered_functional(witness.functional, kind, data)
                witness = witness._replace(functional=functional)
            tampered = LhvCertificate("infeasible", witness=witness)
            # a nudged functional is no longer the one its kind names; a
            # renamed one may be: a Hardy-pattern table can violate CHSH too
            expected = None if kind == "rename" else False

        got = validate_certificate(exact, tampered)
        assert got == oracle.validate_certificate_reference(exact, tampered)
        if expected is not None:
            assert got == expected
        event(f"{cert.verdict}, {kind}: {got}")


class TestRationalizedOnce:
    """One ``feasibility`` or ``validate_certificate`` call parses its table
    once, and an :class:`ExactTable` passed back is not parsed again.  Each
    parse ends in building one ``ExactTable``, so that is what is counted."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        build = ExactTable.__init__

        def counting(self, *args):
            calls.append(args)
            build(self, *args)

        monkeypatch.setattr(ExactTable, "__init__", counting)
        return calls

    #: built before the fixture counts: the quantum table is an ExactTable itself
    QUANTUM = quantum_probability_table(PSIM, PSIM, Interpretation.COLLAPSED_STATE)

    @classmethod
    def float_table(cls, verdict: str):
        if verdict == "feasible":  # float cells read off the quantum table
            q, n = cls.QUANTUM, oracle.cells(cls.QUANTUM)
            return {key: [[n[key, a, b] / q.den for b in (0, 1)] for a in (0, 1)]
                    for key in CONTEXT_KEYS}
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

    @pytest.mark.parametrize("verdict", ["feasible", "infeasible"])
    def test_an_exact_table_is_not_parsed_again(self, calls, verdict):
        exact = rationalize_table(self.float_table(verdict))
        assert len(calls) == 1
        cert = feasibility(exact)
        assert rationalize_table(exact) is exact
        assert validate_certificate(exact, cert)
        assert cert.to_jsonable(exact)["verdict"] == verdict
        assert len(calls) == 1


    def test_each_call_reads_its_floats_at_its_own_tolerance(self):
        # 9/16 two ulps down: within the default tolerance, not within 0
        table = self.float_table("feasible")
        table["d1d2"][0][0] = 0.5624999999999998
        exact = rationalize_table(table)
        assert (exact.n, exact.den) == (self.QUANTUM.n, self.QUANTUM.den)
        with pytest.raises(RationalizationError) as error:
            rationalize_table(table, 0)
        assert str(error.value).startswith(
            "0.5624999999999998 in context 'd1d2' is not within 0 of a rational")


class TestReplayedWhenReported:
    """The deduction chain is replayed only to be printed: never by
    ``feasibility`` or ``validate_certificate``, once by ``hardylab lhv``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return replay_deductions(*args, **kwargs)

        monkeypatch.setattr(lhv, "replay_deductions", counting)
        return calls

    def test_the_decision_and_its_check_replay_nothing(self, calls):
        table = claimed_hardy_table()
        cert = feasibility(table)
        assert cert.witness.kind == "deduction-chain"
        assert validate_certificate(table, cert)
        assert calls == []

    def test_the_paper_claims_report_replays_once(self, calls, capsys):
        assert main(["lhv", "--source", "paper-claims"]) == 0
        assert '"deduction-chain"' in capsys.readouterr().out
        assert len(calls) == 1


#: One table of each class of the benchmark's pool (the quantum one of
#: float cells), and a table of non-dyadic float cells.
ONE_OF_EACH_CLASS = {
    **dict(reversed(POOL.table_pool(0, 1))),
    "non-dyadic-floats": json.loads((GOLDEN / "table_non_dyadic.json").read_text()),
}


class TestNoFractionBuilt:
    """Tables, models and witnesses are ints over one denominator from the
    parse on, so deciding a table and re-checking its certificate build no
    Fraction; only a report does."""

    @pytest.mark.parametrize("name", sorted(ONE_OF_EACH_CLASS))
    def test_feasibility_and_its_check(self, name):
        table = ONE_OF_EACH_CLASS[name]
        certs = []
        assert fractions_built(lambda: certs.append(feasibility(table))) == 0
        assert fractions_built(lambda: validate_certificate(table, certs[0])) == 0
        assert validate_certificate(table, certs[0])
        # the hook sees the Fractions a report builds
        assert fractions_built(lambda: certs[0].to_jsonable(table)) > 0

    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_the_quantum_table_and_its_decision(self, interp):
        quantum_probability_table(PSIM, BellIndex.PHI_PLUS, interp)  # a warm lab
        tables = []
        # the 4 are commutator_norm's Fraction(0), one per context: each
        # context's pair acts on disjoint slots
        assert fractions_built(lambda: tables.append(
            quantum_probability_table(PSIM, BellIndex.PHI_PLUS, interp))) == 4
        assert fractions_built(lambda: feasibility(tables[0])) == 0

    def test_the_sample_set_up(self):
        from hardylab.protocol import TOTAL_STATE
        from hardylab.sampler import RunConfig, sample

        cfg = RunConfig(*context_observables("d1u2"), 16, 0)
        # the 1 is commutator_norm's Fraction(0): D1 and U2 act on disjoint slots
        assert fractions_built(lambda: sample(TOTAL_STATE, cfg)) == 1


# --- Fine's theorem ---------------------------------------------------------


class TestFineTheorem:
    """A third LHV oracle: no-signalling plus the 8 CHSH inequalities."""

    @settings(max_examples=300, deadline=None)
    @given(exact=st.one_of(no_signalling_tables(), TABLE_CLASSES["generic-signalling"]))
    def test_verdict_matches_fine(self, exact):
        local = fine_local(exact)
        assert (feasibility(exact).verdict == "feasible") == local
        event("local" if local else "not local")

    def test_pr_box_violates_chsh(self):
        zero = Fraction(0)
        box = no_signalling_table(
            dict.fromkeys(ALICE, zero),
            dict.fromkeys(BOB, zero),
            {"d1d2": 1, "d1u2": 1, "u1d2": 1, "u1u2": 0},
        )
        assert box == PR_BOX
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


class TestNamedWitnesses:
    """Fine's theorem names the witness of every infeasible table.  A
    Hardy-pattern or signalling table never reaches the model builder;
    every other table does, and the builder finds no model exactly when
    the witness is ``chsh-facet``."""

    @pytest.mark.parametrize("name", sorted(TABLE_CLASSES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kind_and_value(self, name, data):
        # the numbers a report prints with a witness, against the test side's
        exact = data.draw(TABLE_CLASSES[name])
        cert, built = decided_with_builds(exact)
        assert validate_certificate(exact, cert)
        report = cert.to_jsonable(exact).get("witness")
        table = grid(exact)
        p = table["d1d2"][1][1]
        if p > 0 and not (table["d1u2"][1][0] or table["u1d2"][0][1] or table["u1u2"][1][1]):
            assert (cert.witness.kind, built) == ("deduction-chain", [])
            steps = replay_deductions(HardyClaimSet(p, 1, 1, 0), tol=0).steps
            assert report["chain"] == [step.to_jsonable() for step in steps]
        elif signals(table):
            assert (cert.witness.kind, built) == ("no-signalling", [])
            first, second = marginals(table, report["observable"])
            assert rational(report["gap"]) == abs(first - second) > 0
        else:
            assert len(built) == 1
            assert (built[0] is None) == (cert.verdict == "infeasible") == (not fine_local(table))
            if cert.verdict == "feasible":
                event("local: the model builder built it")
                return
            assert cert.witness.kind == "chsh-facet"
            assert rational(report["chsh"]) == chsh_value(table) > 2
        event(cert.witness.kind)

    def test_signalling_table(self):
        cert = decided_without_model(SIGNALLING)
        report = cert.to_jsonable(SIGNALLING)["witness"]
        assert (report["kind"], report["observable"], rational(report["gap"])) == (
            "no-signalling", "u1", Fraction(1, 4)
        )
        # +(P(U1=1) in u1d2 - P(U1=1) in u1u2): 0 on every assignment
        assert cert.witness.functional == {
            ("u1d2", 1, 0): 1, ("u1d2", 1, 1): 1, ("u1u2", 1, 0): -1, ("u1u2", 1, 1): -1,
        }

    def test_pr_boxes(self):
        # the PR box has Hardy's three zeros with P(D1=1,D2=1) = 1/2
        assert decided_without_model(PR_BOX).witness.kind == "deduction-chain"
        # at visibility 3/4 no cell is 0 and no chord glues a model: Hardy's
        # own functional is the facet, at -7/16 + 1/16 + 1/16 + 1/16 = -1/4,
        # so CHSH = 2 + 4/4 = 3
        cert, built = decided_with_builds(NOISY_PR_BOX)
        chsh = rational(cert.to_jsonable(NOISY_PR_BOX)["witness"]["chsh"])
        assert (built, cert.witness.kind, chsh) == ([None], "chsh-facet", 3)
        assert cert.witness.functional == {
            ("d1d2", 1, 1): -1, ("d1u2", 1, 0): 1, ("u1d2", 0, 1): 1, ("u1u2", 1, 1): 1,
        }
        # at visibility 1/2, CHSH = 2: local, so the chord gluing builds the model
        cert, built = decided_with_builds(noisy_pr_box(Fraction(1, 2)))
        assert cert.verdict == "feasible" and built == [list(cert.model.weights)]

    def test_the_reference_finds_the_same_facets(self):
        # brute force finds exactly the 64 relabellings of Hardy's functional
        facets = {frozenset(f.items()) for f in oracle.chsh_facets()}
        assert len(facets) == 64
        assert facets == {frozenset(f.items()) for f in lhv._chsh_facets()}

    def test_no_model_for_a_local_table_is_an_internal_error(self, monkeypatch):
        # the facet witness of a local table is >= 0 on it, so it fails its check
        monkeypatch.setattr(lhv, "_local_model", lambda n, den: None)
        with pytest.raises(HardyLabError, match="internal error"):
            feasibility(noisy_pr_box(Fraction(1, 2)))
