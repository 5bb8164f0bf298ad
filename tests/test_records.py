"""The record contract: every record is immutable, and equality is as documented.

Pure records are named tuples; the seven that validate their fields
(``StateVector``, ``ObservableOp``, ``ExactTable``, ``LhvModel``,
``LhvCertificate``, ``RunConfig``, ``CountTable``) are plain classes on
``core.Frozen``.
"""

from fractions import Fraction

import pytest

from hardylab.core import TOLERANCE, HardyClaimSet, ObservableOp, StateVector
from hardylab.lhv import (
    LhvModel,
    claimed_hardy_table,
    feasibility,
    rationalize_table,
    replay_deductions,
)
from hardylab.observables import CLAIM_TARGETS, Interpretation, audit_pair, context_observables
from hardylab.protocol import TOTAL_STATE, BellIndex, bell_expansion, verify_expansion
from hardylab.sampler import RunConfig, compare_frequencies, exact_context_probabilities, sample


def _records():
    """One instance of each of the 18 record classes, with one field name."""
    expansion = bell_expansion("A1")
    report = verify_expansion("A1")
    trace = replay_deductions(CLAIM_TARGETS)
    infeasible = feasibility(claimed_hardy_table())
    cfg = RunConfig(*context_observables("d1d2"), 100, 0)
    counts = sample(TOTAL_STATE, cfg)
    grid, den = exact_context_probabilities(TOTAL_STATE, cfg)
    deviations = compare_frequencies(counts, [[n / den for n in row] for row in grid])
    return [
        (StateVector((1, 1), ("B",)), "amps"),
        (ObservableOp(StateVector((1, 0), ("A",)), "up"), "target"),
        (CLAIM_TARGETS, "p_joint"),
        (expansion.branches[0], "weight"),
        (expansion, "branches"),
        (report.comparisons[0], "phase"),
        (report, "all_phase"),
        (audit_pair(BellIndex.PSI_MINUS, BellIndex.PSI_MINUS, Interpretation.FIXED_BASIS),
         "verdicts"),
        (trace.steps[0], "fired"),
        (trace, "contradiction"),
        (rationalize_table(claimed_hardy_table()), "n"),
        (LhvModel([1, *[0] * 15], 1), "weights"),
        (infeasible.witness, "functional"),
        (infeasible, "verdict"),
        (cfg, "shots"),
        (counts, "counts"),
        (deviations.cells[0], "count"),
        (deviations, "max_abs_z"),
    ]


RECORDS = _records()


def test_one_record_of_each_class():
    assert len({type(record) for record, _ in RECORDS}) == 18


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


class TestStateVectorEquality:
    def test_equal_fields_compare_and_hash_equal(self):
        a = StateVector((1, 1), ("B",))
        b = StateVector([1, 1], ["B"])
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "other",
        [StateVector((1, -1), ("B",)), StateVector((1, 1), ("A",)),
         StateVector((2, 2), ("B",))],
        ids=["amps", "slots", "scaled-amps"],
    )
    def test_a_differing_field_compares_unequal(self, other):
        assert StateVector((1, 1), ("B",)) != other


def test_operators_compare_by_identity():
    a, b = (ObservableOp(StateVector((1, 0), ("A",)), "up") for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2


STEP_NAMES = (
    "U2 is an element of reality",
    "locality transfer",
    "U1 is an element of reality",
    "joint contradiction",
)
EXISTS = (
    "a D1=D2=1 run exists (probability {}) and P(U2=1|D1=1) = 1, so U2=1 is predetermined for it"
)
TRANSFER = "the distant choice of measurement cannot change the predetermined U2"
U1_REAL = "the same run has D2=1 and P(U1=1|D2=1) = 1, so U1=1 is predetermined"
CONTRADICTION = (
    "the run would give U1=U2=1, yet P(U1=1,U2=1) = 0: the local model contradicts the statistics"
)
TINY = Fraction(1, 10**400)  # a nonzero joint probability that underflows as a float
NO_RUN = "joint D1=D2=1 run has probability {}; no run to reason about"
NOT_REACHED = ["not reached"] * 3


@pytest.mark.parametrize(
    "claims, tol, halted_at, details",
    [
        (HardyClaimSet(0.0625, 1.0, 1.0, 0.0), 1e-12, None,
         [EXISTS.format(0.0625), TRANSFER, U1_REAL, CONTRADICTION]),
        (HardyClaimSet(0.0625, 1.0, 0.5, 0.0), 1e-12, 3,
         [EXISTS.format(0.0625), TRANSFER, "P(U1=1|D2=1) = 0.5 is not a certainty",
          "not reached"]),
        (HardyClaimSet(Fraction(1, 16), Fraction(1), Fraction(1), Fraction(1, 4)), 1e-12, 4,
         [EXISTS.format(0.0625), TRANSFER, U1_REAL,
          "the run would give U1=U2=1, but P(U1=1,U2=1) = 0.25 does not forbid that outcome"]),
        (HardyClaimSet(TINY, Fraction(1), Fraction(1), Fraction(0)), 0.0, None,
         [EXISTS.format(TINY), TRANSFER, U1_REAL, CONTRADICTION]),
        (HardyClaimSet(0.0, 1.0, 1.0, 0.0), 1e-12, 1, [NO_RUN.format(0.0), *NOT_REACHED]),
        (HardyClaimSet(0.0625, 0.5, 1.0, 0.0), 1e-12, 1,
         ["P(U2=1|D1=1) = 0.5 is not a certainty", *NOT_REACHED]),
        # both step-1 premises fail: the missing run is the reason given
        (HardyClaimSet(0.0, 0.5, 1.0, 0.0), 1e-12, 1, [NO_RUN.format(0.0), *NOT_REACHED]),
        # a joint probability within the tolerance of 0 is no run either
        (HardyClaimSet(1e-13, 1.0, 1.0, 0.0), TOLERANCE, 1, [NO_RUN.format(1e-13), *NOT_REACHED]),
    ],
    ids=[
        "float-contradiction", "float-halts", "fraction-halts", "fraction-underflow",
        "float-no-run", "float-uncertain-u2", "float-both-premises-fail", "float-below-tolerance",
    ],
)
def test_replay_gives_the_same_trace(claims, tol, halted_at, details):
    trace = replay_deductions(claims, tol)
    fired = [halted_at is None or k < halted_at for k in (1, 2, 3, 4)]
    assert (trace.contradiction, trace.halted_at) == (halted_at is None, halted_at)
    steps = [(s.index, s.name, s.fired, s.detail) for s in trace.steps]
    assert steps == list(zip((1, 2, 3, 4), STEP_NAMES, fired, details))
