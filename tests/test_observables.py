import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hardylab.core import (
    TOLERANCE,
    HardyLabError,
    NonCommutingError,
    StateVector,
    born_probability,
    born_weight,
    commutator_norm,
)
from hardylab.observables import (
    CLAIM_TARGETS,
    CONTEXT_KEYS,
    Interpretation,
    audit_pair,
    build_d,
    build_u,
    context_observables,
    enumerate_all_pairs,
    joint_outcome_table,
    quantum_probability_table,
)
from hardylab.protocol import BELL_ORDER, BellIndex, make_total_state

import oracle
from oracle import dense, fractions_built

TOL = 1e-12
PSIM = BellIndex.PSI_MINUS

# joint outcome tables for the (psi-, psi-) pair, frozen from the raw
# matrix oracle (see oracle.py); entries are sixteenths
FIXED_TABLES_X16 = {
    "d1d2": [[9, 3], [3, 1]],
    "d1u2": [[8, 4], [0, 4]],
    "u1d2": [[6, 2], [6, 2]],
    "u1u2": [[0, 8], [8, 0]],
}
COLLAPSED_TABLES_X16 = {
    "d1d2": [[9, 3], [3, 1]],
    "d1u2": [[8, 4], [0, 4]],
    "u1d2": [[8, 0], [4, 4]],
    "u1u2": [[4, 4], [4, 4]],
}


def sixteenths(table, key: str) -> list[list[Fraction]]:
    """One context of an exact table, in sixteenths."""
    n = oracle.cells(table)
    return [[Fraction(16 * n[key, a, b], table.den) for b in (0, 1)] for a in (0, 1)]


class TestBuildD:
    def test_rank_counts_via_trace(self):
        op = build_d("A1", PSIM)
        assert np.trace(dense(op)).real == pytest.approx(4.0, abs=TOL)

    def test_matches_raw_kron_oracle(self):
        for index in BELL_ORDER:
            np.testing.assert_allclose(
                build_d("A1", index).matrix, oracle.d1_matrix(index.value), atol=TOL
            )
            np.testing.assert_allclose(
                build_d("2B", index).matrix, oracle.d2_matrix(index.value), atol=TOL
            )

    def test_branch_weight_is_one_quarter(self):
        psi = make_total_state()
        for index in BELL_ORDER:
            assert born_probability(build_d("A1", index), psi) == pytest.approx(
                0.25, abs=TOL
            )

    def test_all_cross_pairs_commute(self):
        for i in BELL_ORDER:
            for j in BELL_ORDER:
                assert commutator_norm(build_d("A1", i), build_d("2B", j)) <= TOL

    def test_bell_completeness(self):
        for pair in ("A1", "2B"):
            total = sum(dense(build_d(pair, i)) for i in BELL_ORDER)
            assert np.abs(total - np.eye(16)).max() <= TOL

    def test_unknown_pair(self):
        with pytest.raises(HardyLabError):
            build_d("12", PSIM)

    def test_a_refused_pair_is_not_cached(self):
        before = build_d.cache_info().currsize
        for _ in range(2):
            with pytest.raises(HardyLabError):
                build_d("12", PSIM)
        assert build_d.cache_info().currsize == before

    def test_keywords_cannot_key_a_second_entry(self):
        # a keyword call would be its own cache entry: an equal operator
        # that is not the lab's, so products of it would be built again
        with pytest.raises(TypeError):
            build_d("A1", index=PSIM)


class TestBuildU:
    def test_fixed_basis_ignores_partner(self):
        for outcome in BELL_ORDER:
            op = build_u("1", Interpretation.FIXED_BASIS, outcome)
            np.testing.assert_allclose(op.matrix, oracle.u1_matrix(oracle.PLUS), atol=TOL)

    def test_collapsed_u2_tracks_the_teleported_state(self):
        for index, vec in [
            (BellIndex.PSI_MINUS, oracle.PLUS),
            (BellIndex.PSI_PLUS, oracle.PLUS),
            (BellIndex.PHI_MINUS, oracle.MINUS),
            (BellIndex.PHI_PLUS, oracle.MINUS),
        ]:
            op = build_u("2", Interpretation.COLLAPSED_STATE, index)
            np.testing.assert_allclose(op.matrix, oracle.u2_matrix(vec), atol=TOL)

    def test_collapsed_u1_tracks_the_teleported_state(self):
        for index, vec in [
            (BellIndex.PSI_MINUS, oracle.XPLUS),
            (BellIndex.PSI_PLUS, oracle.XMINUS),
            (BellIndex.PHI_MINUS, oracle.XPLUS),
            (BellIndex.PHI_PLUS, oracle.XMINUS),
        ]:
            op = build_u("1", Interpretation.COLLAPSED_STATE, index)
            np.testing.assert_allclose(op.matrix, oracle.u1_matrix(vec), atol=TOL)

    def test_u_and_d_on_disjoint_slots_commute(self):
        for interp in Interpretation:
            for i in BELL_ORDER:
                u1 = build_u("1", interp, i)
                u2 = build_u("2", interp, i)
                assert commutator_norm(u1, build_d("2B", i)) <= TOL
                assert commutator_norm(u2, build_d("A1", i)) <= TOL
                assert commutator_norm(u1, u2) <= TOL

    def test_bad_slot(self):
        with pytest.raises(HardyLabError):
            build_u("B", Interpretation.FIXED_BASIS, PSIM)

    @pytest.mark.parametrize("reading", ["fixed", "collapsed", None, []])
    def test_a_reading_that_is_no_interpretation_is_refused(self, reading):
        # every entry point refuses it before any cache lookup, and the
        # caches keep no refusal
        calls = [
            lambda: audit_pair(PSIM, PSIM, reading),
            lambda: enumerate_all_pairs(reading),
            lambda: quantum_probability_table(PSIM, PSIM, reading),
            lambda: context_observables("u1u2", PSIM, PSIM, reading),
        ]
        for call in calls:
            for _ in range(2):
                with pytest.raises(HardyLabError, match=f"not {re.escape(repr(reading))}$"):
                    call()

    @pytest.mark.parametrize("index", ["psi-", None, [], 0])
    def test_a_bell_outcome_that_is_no_bell_index_is_refused(self, index):
        fixed = Interpretation.FIXED_BASIS
        calls = [
            lambda: audit_pair(index, PSIM, fixed),
            lambda: audit_pair(PSIM, index, fixed),
            lambda: quantum_probability_table(index, PSIM, fixed),
            lambda: context_observables("d1d2", PSIM, index, fixed),
        ]
        for call in calls:
            for _ in range(2):
                with pytest.raises(HardyLabError, match=f"not {re.escape(repr(index))}$"):
                    call()

    def test_slot_state_is_read_only_from_a_product_residual(self):
        from hardylab.observables import _pure_slot_state

        product = StateVector((0, 0, 2, -2), ("2", "B"))  # |->_2 (|+> - |->)_B
        assert _pure_slot_state(product, "2").amps == (0, 1)
        assert _pure_slot_state(product, "B").amps == (1, -1)
        entangled = StateVector((0, 1, -1, 0), ("2", "B"))
        with pytest.raises(HardyLabError, match="not pure"):
            _pure_slot_state(entangled, "2")


class TestConditionalProbability:
    """The conditionals ``audit_pair`` reports: a joint over a marginal."""

    def test_teleportation_certainty_fixed(self):
        p = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS).measured.c_d1u2
        assert p == pytest.approx(1.0, abs=TOL)

    def test_collapsed_u1_certainty(self):
        p = audit_pair(PSIM, PSIM, Interpretation.COLLAPSED_STATE).measured.c_d2u1
        assert p == pytest.approx(1.0, abs=TOL)

    def test_fixed_u1_is_only_even_odds(self):
        # brute-force route: <psi| D2 U1 D2 |psi> / <psi| D2 |psi>
        psi_vec = oracle.total_state_vec()
        d2 = oracle.d2_matrix("psi-")
        u1 = oracle.u1_matrix(oracle.PLUS)
        expected = oracle.born(d2 @ u1 @ d2, psi_vec) / oracle.born(d2, psi_vec)
        assert expected == pytest.approx(0.5, abs=TOL)

        p = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS).measured.c_d2u1
        assert p == pytest.approx(expected, abs=TOL)


class TestAuditPair:
    def test_fixed_psiminus_pair(self):
        report = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS)
        m = report.measured
        assert m.p_joint == pytest.approx(1.0 / 16.0, abs=TOL)
        assert m.c_d1u2 == pytest.approx(1.0, abs=TOL)
        assert m.p_u1u2 == 0.0
        assert m.c_d2u1 == pytest.approx(0.5, abs=TOL)  # reported, not hidden
        assert (m.p_joint, m.c_d1u2, m.c_d2u1) == (Fraction(1, 16), 1, Fraction(1, 2))
        assert report.verdicts["p_joint"]
        assert report.verdicts["c_d1u2"]
        assert report.verdicts["p_u1u2"]
        assert not report.verdicts["c_d2u1"]

    def test_collapsed_phiplus_phiminus_pair(self):
        report = audit_pair(
            BellIndex.PHI_PLUS, BellIndex.PHI_MINUS, Interpretation.COLLAPSED_STATE
        )
        m = report.measured
        assert m.p_joint == pytest.approx(1.0 / 16.0, abs=TOL)
        assert m.c_d1u2 == pytest.approx(1.0, abs=TOL)
        assert m.c_d2u1 == pytest.approx(1.0, abs=TOL)
        assert m.p_u1u2 == pytest.approx(0.25, abs=TOL)  # computed and reported
        assert not report.verdicts["p_u1u2"]

    def test_audit_is_deterministic(self):
        a = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS)
        b = audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS)
        assert a.measured == b.measured
        assert dict(a.verdicts) == dict(b.verdicts)

    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_measured_values_are_read_off_the_tables(self, interp):
        # the audit and the tables share one Born rule, so they agree exactly
        for i in BELL_ORDER:
            for j in BELL_ORDER:
                t = quantum_probability_table(i, j, interp)
                n = oracle.cells(t)
                assert audit_pair(i, j, interp).measured == (
                    Fraction(n["d1d2", 1, 1], t.den),
                    Fraction(n["d1u2", 1, 1], n["d1u2", 1, 0] + n["d1u2", 1, 1]),
                    Fraction(n["u1d2", 1, 1], n["u1d2", 0, 1] + n["u1d2", 1, 1]),
                    Fraction(n["u1u2", 1, 1], t.den),
                )

    # the targets as the paper states them, written out here, not read from the package
    TARGETS = {"p_joint": Fraction(1, 16), "c_d1u2": 1, "c_d2u1": 1, "p_u1u2": 0}
    MARGIN_TOLS = sorted(
        {near for tol in (0.0, 1e-12, 0.25, 0.5, 1.0)
         for near in (tol, math.nextafter(tol, -math.inf), math.nextafter(tol, math.inf))}
    )
    # ints and Fractions are read on their exact values too: c_d2u1 = 1/2 on
    # (psi-, psi-, fixed) sits 1/2 from its target, between the two near 1/2
    EXACT_TOLS = [
        pytest.param(0, id="int-0"),
        pytest.param(1, id="int-1"),
        pytest.param(Fraction(1, 2), id="1/2"),
        pytest.param(Fraction(1, 2) - Fraction(1, 10**30), id="1/2-1e-30"),
        pytest.param(Fraction(1, 2) + Fraction(1, 10**30), id="1/2+1e-30"),
        pytest.param(Fraction(1, 16) - Fraction(1, 10**30), id="1/16-1e-30"),
        pytest.param(10**400, id="int-10**400"),
    ]

    @pytest.mark.parametrize("tol", MARGIN_TOLS + EXACT_TOLS)
    def test_verdicts_equal_the_exact_comparison_at_the_margins(self, tol):
        if tol < 0:  # just below zero
            with pytest.raises(HardyLabError):
                audit_pair(PSIM, PSIM, Interpretation.FIXED_BASIS, tol)
            return
        for interp in Interpretation:
            for i in BELL_ORDER:
                for j in BELL_ORDER:
                    report = audit_pair(i, j, interp, tol)
                    for key, target in self.TARGETS.items():
                        value = getattr(report.measured, key)
                        expected = abs(Fraction(value) - target) <= Fraction(tol)
                        assert report.verdicts[key] is expected, (i, j, interp, key, tol)

    def test_claim_targets(self):
        assert CLAIM_TARGETS.p_joint == 1.0 / 16.0
        assert CLAIM_TARGETS.p_u1u2 == 0.0
        assert CLAIM_TARGETS.p_joint == Fraction(1, 16)


class TestEnumerateAllPairs:
    def test_sixteen_reports_with_unit_total(self):
        for interp in Interpretation:
            reports, summary = enumerate_all_pairs(interp)
            assert len(reports) == 16
            assert abs(summary["sum_p_joint"] - 1.0) <= TOL
            for r in reports:
                assert r.measured.p_joint == pytest.approx(1.0 / 16.0, abs=TOL)

    def test_collapsed_interpretation_wins_both_conditionals(self):
        _, summary = enumerate_all_pairs(Interpretation.COLLAPSED_STATE)
        counts = summary["per_claim_pass_counts"]
        assert counts["c_d1u2"] == 16
        assert counts["c_d2u1"] == 16
        assert counts["p_u1u2"] == 0
        assert summary["pairs_passing_all"] == 0

    def test_fixed_interpretation_scorecard(self):
        _, summary = enumerate_all_pairs(Interpretation.FIXED_BASIS)
        counts = summary["per_claim_pass_counts"]
        assert counts["p_joint"] == 16
        assert counts["p_u1u2"] == 16
        assert counts["c_d1u2"] == 8  # only the psi-type D1 branches teleport |+>
        assert counts["c_d2u1"] == 0
        assert summary["pairs_passing_all"] == 0

    # the audit's margins are 0, 1/4, 1/2 and 1, so the verdicts, and the
    # summary's counts over the distinct claim sets, change at each of them
    MARGINS = [Fraction(1, 4), Fraction(1, 2), 1]
    JUST_BELOW = [margin - Fraction(1, 10**30) for margin in MARGINS]

    @pytest.mark.parametrize(
        "tol", [TOLERANCE, 0, 1e-9, 0.3, Fraction(1, 16), *MARGINS, *JUST_BELOW]
    )
    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_a_sweep_equals_its_single_audits(self, interp, tol):
        reports, summary = enumerate_all_pairs(interp, tol)
        audits = [audit_pair(i, j, interp, tol) for i in BELL_ORDER for j in BELL_ORDER]
        assert reports == audits
        # from 1/4 every collapsed pair passes all four claims; from 1/2
        # the 8 fixed pairs with a psi-type D1 do, and from 1 all 16
        assert summary["pairs_passing_all"] == sum(r.all_pass for r in audits)
        assert summary["per_claim_pass_counts"] == {
            key: sum(r.verdicts[key] for r in audits) for key in CLAIM_TARGETS._fields
        }

    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_each_report_owns_its_verdicts(self, interp):
        reports, _ = enumerate_all_pairs(interp)
        before = [dict(r.verdicts) for r in reports]
        reports[0].verdicts["p_joint"] = not before[0]["p_joint"]
        assert [dict(r.verdicts) for r in reports[1:]] == before[1:]
        assert [dict(r.verdicts) for r in enumerate_all_pairs(interp)[0]] == before


class TestProbabilityTables:
    def test_fixed_tables_match_frozen_oracle(self):
        table = quantum_probability_table(PSIM, PSIM, Interpretation.FIXED_BASIS)
        for key, grid in FIXED_TABLES_X16.items():
            assert sixteenths(table, key) == grid

    def test_collapsed_tables_match_frozen_oracle(self):
        table = quantum_probability_table(PSIM, PSIM, Interpretation.COLLAPSED_STATE)
        for key, grid in COLLAPSED_TABLES_X16.items():
            assert sixteenths(table, key) == grid

    def test_impossible_cells_are_exactly_zero(self):
        table = quantum_probability_table(PSIM, PSIM, Interpretation.FIXED_BASIS)
        n = oracle.cells(table)
        assert n["u1u2", 1, 1] == 0
        assert n["u1u2", 0, 0] == 0
        assert n["d1u2", 1, 0] == 0

    def test_every_context_sums_to_one(self):
        for interp in Interpretation:
            for i in BELL_ORDER:
                for j in BELL_ORDER:
                    table = quantum_probability_table(i, j, interp)
                    n = oracle.cells(table)
                    for key in CONTEXT_KEYS:
                        assert sum(n[key, a, b] for a in (0, 1) for b in (0, 1)) == table.den
                    for key in CONTEXT_KEYS:  # and each grid on its own den
                        grid, den = joint_outcome_table(
                            *context_observables(key, i, j, interp), make_total_state()
                        )
                        assert sum(map(sum, grid)) == den

    def test_no_signaling_marginals_agree_across_contexts(self):
        # any observable appearing in two contexts must show one marginal
        for interp in Interpretation:
            for i in BELL_ORDER:
                for j in BELL_ORDER:
                    n = oracle.cells(quantum_probability_table(i, j, interp))

                    def rows(key):
                        return [n[key, a, 0] + n[key, a, 1] for a in (0, 1)]

                    def cols(key):
                        return [n[key, 0, b] + n[key, 1, b] for b in (0, 1)]

                    assert rows("d1d2") == rows("d1u2")
                    assert cols("d1d2") == cols("u1d2")
                    assert rows("u1d2") == rows("u1u2")
                    assert cols("d1u2") == cols("u1u2")

    def test_joint_outcome_table_refuses_non_commuting(self):
        psi = make_total_state()
        with pytest.raises(NonCommutingError):
            joint_outcome_table(
                build_d("A1", PSIM),
                build_u("1", Interpretation.FIXED_BASIS, PSIM),
                psi,
            )


class TestContextObservables:
    def test_resolves_tokens(self):
        first, second = context_observables("d1u2")
        assert first.name.startswith("D1")
        assert second.name.startswith("U2")

    def test_bad_token(self):
        with pytest.raises(HardyLabError):
            context_observables("d1d3")


class TestLabIsBuiltOnce:
    """The lab builds each state, expansion and operator once per process."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from hardylab import cli, core, observables, protocol

        counts = dict.fromkeys(
            ("ObservableOp", "make_total_state", "expand_in_bell_basis", "build_d", "build_u"), 0
        )

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            core.ObservableOp, "__init__", counting("ObservableOp", core.ObservableOp.__init__)
        )
        for name in ("make_total_state", "expand_in_bell_basis"):
            wrapped = counting(name, getattr(protocol, name))
            for module in (protocol, observables, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        for name in ("build_d", "build_u"):
            monkeypatch.setattr(observables, name, counting(name, getattr(observables, name)))
        return counts

    #: four per distinct set of values (2 under fixed, 1 under collapsed)
    #: and one for the summary's sum of joints
    WARM_SWEEP_FRACTIONS = {Interpretation.FIXED_BASIS: 9, Interpretation.COLLAPSED_STATE: 5}

    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_warm_sweep_constructs_nothing(self, interp, request):
        warm = enumerate_all_pairs(interp)
        counts = request.getfixturevalue("counts")
        again = enumerate_all_pairs(interp)
        assert counts == dict.fromkeys(counts, 0)  # each pair's six operators are looked up
        assert [r.to_jsonable() for r in again[0]] == [r.to_jsonable() for r in warm[0]]
        assert fractions_built(lambda: enumerate_all_pairs(interp)) == (
            self.WARM_SWEEP_FRACTIONS[interp]
        )

    def test_fresh_operators_leave_the_product_cache_alone(self):
        from hardylab import observables
        from hardylab.core import ObservableOp
        from hardylab.protocol import TOTAL_STATE

        before = observables._product.cache_info().currsize
        for _ in range(1000):
            first = ObservableOp(StateVector((1, 0), ("1",)), "U1[z+]")
            second = ObservableOp(StateVector((1, 0), ("2",)), "U2[z+]")
            grid, den = joint_outcome_table(first, second, TOTAL_STATE)
        assert observables._product.cache_info().currsize == before
        assert [[Fraction(16 * x, den) for x in row] for row in grid] == FIXED_TABLES_X16["u1u2"]

    @pytest.mark.parametrize("interp", list(Interpretation))
    def test_an_audit_computes_six_born_weights(self, interp, monkeypatch):
        from hardylab import observables
        from hardylab.protocol import TOTAL_STATE

        i, j = PSIM, BellIndex.PHI_PLUS
        audit_pair(i, j, interp)  # warm
        weighed = []

        def counting(op, s):
            weighed.append((op, s))
            return born_weight(op, s)

        monkeypatch.setattr(observables, "born_weight", counting)
        assert not hasattr(observables, "born_probability")  # weights are all it reads
        audit_pair(i, j, interp)
        d1, u2 = context_observables("d1u2", i, j, interp)
        u1, d2 = context_observables("u1d2", i, j, interp)
        pairs = ((d1, d2), (d1, u2), (u1, d2), (u1, u2))
        expected = [observables._product(a, b) for a, b in pairs] + [d1, d2]
        assert all(s is TOTAL_STATE for _, s in weighed)
        assert sorted(id(op) for op, _ in weighed) == sorted(map(id, expected))

    @pytest.mark.parametrize(
        "interp, distinct", [(Interpretation.FIXED_BASIS, 33), (Interpretation.COLLAPSED_STATE, 48)]
    )
    def test_a_sweep_weighs_each_distinct_operator_once_per_call(
        self, interp, distinct, monkeypatch
    ):
        from hardylab import observables

        cold = enumerate_all_pairs(interp)
        weighed = []

        def counting(op, s):
            weighed.append(op)
            return born_weight(op, s)

        monkeypatch.setattr(observables, "born_weight", counting)
        for _ in range(2):  # the second sweep finds nothing kept by the first
            weighed.clear()
            reports, summary = enumerate_all_pairs(interp)
            assert len(weighed) == len(set(map(id, weighed))) == distinct
            assert (reports, summary) == cold

    def test_lookups_return_one_object(self):
        for index in BELL_ORDER:
            assert build_d("A1", index) is build_d("A1", index)
            assert build_u("2", Interpretation.COLLAPSED_STATE, index) is build_u(
                "2", Interpretation.COLLAPSED_STATE, index
            )

    def test_lab_entries_do_not_depend_on_the_tolerance(self):
        # the lab is exact, so one entry serves every tolerance
        u1 = build_u("1", Interpretation.COLLAPSED_STATE, PSIM)
        d2 = build_d("2B", PSIM)
        default = audit_pair(PSIM, PSIM, Interpretation.COLLAPSED_STATE)
        loose = audit_pair(PSIM, PSIM, Interpretation.COLLAPSED_STATE, tol=1e-9)
        assert build_d("2B", PSIM) is d2
        assert build_u("1", Interpretation.COLLAPSED_STATE, PSIM) is u1
        assert loose.measured == default.measured
        assert audit_pair(PSIM, PSIM, Interpretation.COLLAPSED_STATE, tol=0.3).measured == (
            default.measured
        )

    def test_expand_builds_no_operator(self, counts, capsys):
        from hardylab.cli import main

        assert main(["expand", "--slots", "A1"]) == 0
        assert main(["expand", "--slots", "2B"]) == 0
        assert counts["ObservableOp"] == 0

    def test_repeated_expand_builds_state_and_expansions_once(self, monkeypatch, capsys):
        from hardylab import protocol
        from hardylab.cli import main

        calls = {"make_total_state": 0, "expansions": []}
        expand, make = protocol.expand_in_bell_basis, protocol.make_total_state

        def counting_expand(s, slots):
            calls["expansions"].append(tuple(slots))
            return expand(s, slots)

        def counting_make():
            calls["make_total_state"] += 1
            return make()

        monkeypatch.setattr(protocol, "expand_in_bell_basis", counting_expand)
        monkeypatch.setattr(protocol, "make_total_state", counting_make)
        protocol.bell_expansion.cache_clear()  # a cold lab: its entries are rebuilt equal
        for _ in range(3):
            assert main(["expand", "--slots", "A1"]) == 0
            assert main(["expand", "--slots", "2B"]) == 0
        assert calls["make_total_state"] <= 1
        assert sorted(calls["expansions"]) == [("2", "B"), ("A", "1")]
