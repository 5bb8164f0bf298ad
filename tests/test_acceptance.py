"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from hardylab.cli import main
from hardylab.core import (
    CANONICAL_SLOTS,
    ObservableOp,
    StateVector,
    born_probability,
    commutator_norm,
)
from hardylab.lhv import (
    LhvModel,
    claimed_hardy_table,
    feasibility,
    replay_deductions,
    validate_certificate,
)
from hardylab.observables import (
    CONTEXT_KEYS,
    HardyClaimSet,
    Interpretation,
    audit_pair,
    build_d,
    build_u,
    enumerate_all_pairs,
)
from hardylab.protocol import (
    BELL_ORDER,
    BellIndex,
    bell_state,
    expand_in_bell_basis,
    make_ancillas,
    make_singlet,
    make_total_state,
)
from hardylab.sampler import RunConfig, sample

import oracle
from oracle import MINUS, PLUS, XPLUS, dense, unit

TOL = 1e-12
PSIM = BellIndex.PSI_MINUS


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_expansion_fidelity(capsys):
    code, env = run_cli_json(capsys, "expand", "--slots", "A1")
    assert code == 0
    assert env["results"]["all_exact"] is True

    expansion = expand_in_bell_basis(make_total_state(), ("A", "1"))
    slot2_targets = {"psi-": PLUS, "psi+": PLUS, "phi-": MINUS, "phi+": MINUS}
    for branch in expansion.branches:
        assert branch.weight == Fraction(1, 4)
        target = np.kron(slot2_targets[branch.bell.value], XPLUS)
        overlap = np.vdot(target, unit(branch.residual))
        assert abs(abs(overlap) - 1.0) <= TOL

    code, env = run_cli_json(capsys, "expand", "--slots", "2B")
    assert code == 0
    assert env["results"]["all_up_to_phase"] is True
    for branch in env["results"]["branches"]:
        assert branch["phase"] is not None  # phases are reported
    print("\nACCEPTANCE 1 PASS: both Bell-basis expansions reproduced "
          "(A1 exact; 2B up to reported per-branch phases)")


def test_criterion_2_joint_probability():
    psi = make_total_state()
    p = born_probability(build_d("A1", PSIM) @ build_d("2B", PSIM), psi)
    assert abs(p - 1.0 / 16.0) <= TOL

    for interp in Interpretation:
        reports, summary = enumerate_all_pairs(interp)
        for report in reports:
            assert abs(report.measured.p_joint - 1.0 / 16.0) <= TOL
        assert abs(summary["sum_p_joint"] - 1.0) <= TOL
    print("\nACCEPTANCE 2 PASS: joint Bell detection is 1/16 for every one "
          "of the 16 pairs and the pairs sum to 1")


def test_criterion_3_claims_for_the_psiminus_pair():
    psi = make_total_state()
    u1_fixed = build_u("1", Interpretation.FIXED_BASIS, PSIM)
    u2_fixed = build_u("2", Interpretation.FIXED_BASIS, PSIM)

    assert born_probability(u1_fixed @ u2_fixed, psi) == 0.0  # exactly
    assert commutator_norm(build_d("A1", PSIM), build_d("2B", PSIM)) <= TOL

    fixed = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS)
    collapsed = audit_pair(PSIM, PSIM, Interpretation.COLLAPSED_STATE)
    assert abs(fixed.measured.c_d1u2 - 1.0) <= TOL

    # brute-force oracle for P(U1=1 | D2=1) under the fixed reading,
    # computed from raw kron matrices with no package machinery
    psi_vec = oracle.total_state_vec()
    d2 = oracle.d2_matrix("psi-")
    u1 = oracle.u1_matrix(oracle.PLUS)
    oracle_value = oracle.born(d2 @ u1 @ d2, psi_vec) / oracle.born(d2, psi_vec)

    assert abs(collapsed.measured.c_d2u1 - 1.0) <= TOL
    assert abs(fixed.measured.c_d2u1 - oracle_value) <= TOL
    # the divergence from the claimed value 1 is surfaced in the verdicts
    assert fixed.verdicts["c_d2u1"] is False
    assert collapsed.verdicts["c_d2u1"] is True
    print("\nACCEPTANCE 3 PASS: U1*U2 = 0 exactly, P(U2|D1) = 1, [D1,D2] = 0; "
          f"P(U1|D2) = 1 collapsed vs {fixed.measured.c_d2u1} fixed "
          f"(oracle {oracle_value}), divergence surfaced")


def test_criterion_4_lhv_contradiction(capsys):
    code, env = run_cli_json(capsys, "lhv", "--source", "paper-claims")
    assert code == 0
    cert = env["results"]["certificate"]
    assert cert["verdict"] == "infeasible"
    assert env["results"]["validated"] is True
    chain = cert["witness"]["chain"]
    assert [step["step"] for step in chain] == [1, 2, 3, 4]
    assert all(step["fired"] for step in chain)

    # property: any positive joint weight keeps the claims infeasible
    rng = np.random.default_rng(2024)
    for _ in range(40):
        p = Fraction(int(rng.integers(1, 2**18)), 2 ** int(rng.integers(2, 19)))
        if p > Fraction(1, 4):
            p = Fraction(1, int(rng.integers(5, 2**18)))
        table = claimed_hardy_table(p)
        certificate = feasibility(table)
        assert certificate.verdict == "infeasible"
        assert validate_certificate(table, certificate)
        trace = replay_deductions(HardyClaimSet(float(p), 1.0, 1.0, 0.0))
        assert trace.contradiction
    print("\nACCEPTANCE 4 PASS: claimed statistics are locally infeasible with "
          "a validated four-step deduction witness, for every positive joint weight")


def test_criterion_5_certificate_soundness():
    rng = np.random.default_rng(7)
    for trial in range(100):
        raw = [int(x) for x in rng.integers(0, 30, size=16)]
        if sum(raw) == 0:
            raw[trial % 16] = 1
        model = LhvModel(raw, sum(raw))
        table = {
            key: [
                [oracle.cell_probability(model, (key, a, b)) for b in (0, 1)]
                for a in (0, 1)
            ]
            for key in CONTEXT_KEYS
        }
        cert = feasibility(table)
        assert cert.verdict == "feasible"
        assert validate_certificate(table, cert)

        # moving 1/1000 of the weight must break the certificate
        weights = [1000 * w for w in cert.model.weights]
        donor = weights.index(max(weights))
        receiver = 1 if donor == 0 else 0
        weights[donor] -= cert.model.den
        weights[receiver] += cert.model.den
        from hardylab.lhv import LhvCertificate

        tampered = LhvCertificate("feasible", model=LhvModel(weights, 1000 * cert.model.den))
        assert not validate_certificate(table, tampered)
    print("\nACCEPTANCE 5 PASS: 100 random mixtures reproduced exactly; every "
          "1/1000 weight perturbation caught")


def test_criterion_6_sampler_statistics():
    state = make_total_state()
    d1, d2 = build_d("A1", PSIM), build_d("2B", PSIM)
    for seed in range(1, 11):
        counts = sample(state, RunConfig(d1, d2, 160000, seed))
        empirical = counts.counts[1][1] / 160000
        assert abs(empirical - 0.0625) <= 0.005

    u1 = build_u("1", Interpretation.FIXED_BASIS, PSIM)
    u2 = build_u("2", Interpretation.FIXED_BASIS, PSIM)
    for seed in range(1, 11):
        for shots in (1, 100, 1000, 160000):
            counts = sample(state, RunConfig(u1, u2, shots, seed))
            assert counts.counts[1][1] == 0
    print("\nACCEPTANCE 6 PASS: empirical joint detection within 0.0625 +/- "
          "0.005 for seeds 1..10; no impossible U1=U2=1 event ever sampled")


def test_criterion_7_invariant_suite():
    # Bell-projector completeness on both pairs
    for pair in ("A1", "2B"):
        total = sum(dense(build_d(pair, i)) for i in BELL_ORDER)
        assert np.abs(total - np.eye(16)).max() <= TOL

    # Hermiticity and idempotence of every operator in play
    operators = [build_d(pair, i) for pair in ("A1", "2B") for i in BELL_ORDER]
    operators += [
        build_u(slot, interp, i)
        for slot in ("1", "2")
        for interp in Interpretation
        for i in BELL_ORDER
    ]
    for op in operators:
        mat = dense(op)
        assert np.abs(mat - mat.conj().T).max() <= TOL
        assert np.abs(mat @ mat - mat).max() <= TOL

    # every constructed state is amps / sqrt(norm2), norm2 their squared length
    ancilla_a, ancilla_b = make_ancillas()
    states = [make_singlet(), ancilla_a, ancilla_b, make_total_state()]
    states += [bell_state(i, ("2", "B")) for i in BELL_ORDER]
    for s in states:
        assert s.norm2 == sum(a * a for a in s.amps)

    # singlet anticorrelation along every integer real direction (a, b), |a|, |b| <= 5
    directions = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if a or b]
    for direction in directions:
        p1 = ObservableOp(StateVector(direction, ("1",)))
        p2 = ObservableOp(StateVector(direction, ("2",)))
        assert born_probability(p1 @ p2, make_singlet()) == 0

    # exact branch weights of both expansions of the state, then the
    # reconstruction identity: over the integer Bell kets (norm2 2), sum_b |b> x <b|s> = 2 s
    for pair in (("A", "1"), ("2", "B")):
        branches = expand_in_bell_basis(make_total_state(), pair).branches
        assert [b.weight for b in branches] == [Fraction(1, 4)] * 4
    rng = np.random.default_rng(123)
    states = [make_total_state()]
    states += [StateVector(rng.integers(-3, 4, size=16).tolist(), CANONICAL_SLOTS)
               for _ in range(20)]
    for s in states:
        for pair in (("A", "1"), ("2", "B")):
            assert oracle.bell_sum(s, pair).tolist() == [2 * a for a in s.amps]
    print("\nACCEPTANCE 7 PASS: completeness, projector laws, normalization, "
          "anticorrelation along 120 directions, and reconstruction all hold")
