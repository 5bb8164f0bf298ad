"""The D/U observables, the Hardy-condition audit, and the 16-pair sweep.

Four observables are in play.  D1 projects Alice's pair (A, 1) onto a Bell
state; D2 does the same for Bob's pair (2, B).  U1 and U2 are single-qubit
projectors on qubits 1 and 2.  The advertised conditions are

    P(D1=1 and D2=1) = 1/16,   P(U2=1 | D1=1) = 1,
    P(U1=1 | D2=1)   = 1,      P(U1=1 and U2=1) = 0,

and the audit measures all four under two explicit readings of U1/U2:

* ``FIXED_BASIS``: U1 and U2 are the spin-up-along-z projectors |+><+| on
  qubits 1 and 2, exactly as written in the construction.
* ``COLLAPSED_STATE``: U projects onto the state the partner qubit is
  teleported into for the chosen Bell branch, taken from the derived
  expansion at run time (never hand-coded).

The two readings genuinely disagree on one conditional; the audit reports
both and never silently picks one.

Every reported probability is the exact Born probability of one projector
on the total state: a D, a U, or the product of a context's commuting
pair.  A conditional is a joint probability over a marginal,
P(U2=1 | D1=1) = P(D1=1, U2=1) / P(D1=1), and a context's 2x2 table
follows from its two marginals and its joint.  All of it works on the
integer Born weights ``(num, den)``: the audit builds one Fraction per
reported value and decides each verdict by :func:`~hardylab.core.within_tolerance`,
and a pair's four tables make one :class:`~hardylab.lhv.ExactTable`.
The 18 distinct operators, the products :func:`audit_pair` takes of
their context pairs, each pair's six audited operators, and each
reading's sweep plan are built on their first lookup and then reused
for the rest of the process.  They are operators only, never weights.
:func:`joint_outcome_table` accepts any operators, so it forms its
product itself and keeps nothing.

One audit computes its six Born weights.  A sweep of the 16 pairs walks
its reading's plan: the pairs' 96 operators in the reporting order and
the distinct ones among them, 33 under ``fixed`` and 48 under
``collapsed``.  It weighs the distinct ones once, up front.  Every Bell
branch weighs 1/4, so the pairs' four values repeat: the sweep builds
the Fractions and verdicts of each distinct set of values once, 2 sets
under ``fixed`` and 1 under ``collapsed``, counts the pairs that share
each, and gives each report its own copy of the verdicts.  Its summary
is summed over those sets times their counts, exactly.  The weights and
the decided sets live in dicts that are dropped when the sweep returns,
so no probability or report is kept between calls.  Each weight reads
only the nonzero amplitudes of the state, 4 of its 16.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Mapping, NamedTuple

from .core import CLAIM_TARGETS, CONTEXT_KEYS, TARGET_RATIOS, TOLERANCE, HardyClaimSet
from .core import HardyLabError, NonCommutingError, ObservableOp, StateVector
from .core import born_weight, check_tolerance, commutator_norm, partial_overlap, within_tolerance
from .protocol import BELL_ORDER, PAIR_SLOTS, TOTAL_STATE, BellIndex, bell_expansion, bell_state


class Interpretation(Enum):
    """How the single-qubit observables U1/U2 are read."""

    FIXED_BASIS = "fixed"
    COLLAPSED_STATE = "collapsed"


# --- the lab ----------------------------------------------------------------
# Every entry is built on its first lookup and kept for the process.
# Entries are immutable (operators and states refuse assignment through
# core.Frozen), so sharing them is safe.


@cache
def _u(slot: str, interp: Interpretation, partner_outcome: BellIndex | None) -> ObservableOp:
    which = f"U{slot}"
    if interp is Interpretation.FIXED_BASIS:
        return ObservableOp(StateVector((1, 0), (slot,)), f"{which}[z+]")
    pair = "A1" if slot == "2" else "2B"
    # every branch of TOTAL_STATE weighs 1/4, so each has a residual
    return ObservableOp(
        _pure_slot_state(bell_expansion(pair).branch(partner_outcome).residual, slot),
        f"{which}[collapsed:{partner_outcome.value}]",
    )


@cache
def _product(first: ObservableOp, second: ObservableOp) -> ObservableOp:
    # keyed on operator identity: only for the lab's own operators
    return first @ second


@cache
def build_d(pair_slot: str, index: BellIndex, /) -> ObservableOp:
    """Bell-state projector on one station's pair, identity elsewhere.  The
    arguments are positional, so each pair is one cache entry."""
    if pair_slot not in PAIR_SLOTS:
        raise HardyLabError(f"unknown pair slot {pair_slot!r} (want A1 or 2B)")
    which = "D1" if pair_slot == "A1" else "D2"
    return ObservableOp(bell_state(index, PAIR_SLOTS[pair_slot]), f"{which}[{index.value}]")


def _pure_slot_state(residual: StateVector, slot: str) -> StateVector:
    """The state of one slot of a product residual, read off a nonzero slice.

    <+| and <-| on ``slot`` give the two rows of the residual over its
    other slots; it is a product state iff they are parallel, and then the
    slot's state is any nonzero column.
    """
    plus, minus = (partial_overlap(StateVector(e, (slot,)), residual) for e in ((1, 0), (0, 1)))
    if any(a * d != b * c for a, c in zip(plus, minus) for b, d in zip(plus, minus)):
        raise HardyLabError(f"slot {slot!r} of the residual is not pure")
    column = next((a, c) for a, c in zip(plus, minus) if a or c)
    g = math.gcd(*column) * (1 if max(column, key=abs) > 0 else -1)
    return StateVector(tuple(x // g for x in column), (slot,))


def _check_inputs(interp: Interpretation, *outcomes: BellIndex) -> None:
    # before any cache lookup: an unhashable value would fail in the cache
    for index in outcomes:
        if not isinstance(index, BellIndex):
            raise HardyLabError(f"a Bell outcome must be a BellIndex, not {index!r}")
    if not isinstance(interp, Interpretation):
        raise HardyLabError(f"a reading must be an Interpretation, not {interp!r}")


def build_u(slot: str, interp: Interpretation, partner_outcome: BellIndex) -> ObservableOp:
    """Single-qubit projector for U1 (slot "1") or U2 (slot "2").

    Under ``FIXED_BASIS`` the partner outcome is irrelevant and the result
    is |+><+| on the slot.  Under ``COLLAPSED_STATE`` the projector targets
    the teleported state of this slot given the partner station's Bell
    outcome: for U2 that is the slot-2 part of the (A,1)-expansion branch,
    for U1 the slot-1 part of the (2,B)-expansion branch.
    """
    if slot not in ("1", "2"):
        raise HardyLabError(f"U observables live on qubit 1 or 2, not {slot!r}")
    _check_inputs(interp)
    if interp is Interpretation.FIXED_BASIS:
        partner_outcome = None
    return _u(slot, interp, partner_outcome)


def joint_outcome_table(
    first: ObservableOp, second: ObservableOp, s: StateVector
) -> tuple[tuple[tuple[int, int], tuple[int, int]], int]:
    """Exact 2x2 joint distribution [a][b] of two commuting projectors, as
    ``(grid, den)``: int numerators over the Born weight's den of their
    product, which each marginal's den divides."""
    if commutator_norm(first, second):
        raise NonCommutingError(f"{first.name} and {second.name} do not commute")
    p11, den = born_weight(first @ second, s)
    (a, da), (b, db) = born_weight(first, s), born_weight(second, s)
    p_a, p_b = a * (den // da), b * (den // db)
    grid = ((den - p_a - p_b + p11, p_b - p11), (p_a - p11, p11))
    if any(n < 0 for row in grid for n in row):
        raise HardyLabError(f"malformed outcome table {[list(row) for row in grid]} over {den}")
    return grid, den


class AuditReport(NamedTuple):
    d1_bell: BellIndex
    d2_bell: BellIndex
    interpretation: Interpretation
    measured: HardyClaimSet
    verdicts: Mapping[str, bool]

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_jsonable(self) -> dict:
        return {
            "d1": self.d1_bell.value,
            "d2": self.d2_bell.value,
            "interpretation": self.interpretation.value,
            "measured": self.measured.to_jsonable(),
            "claimed": CLAIM_TARGETS.to_jsonable(),
            "verdicts": dict(self.verdicts),
            "all_pass": self.all_pass,
        }


def audit_pair(
    i: BellIndex, j: BellIndex, interp: Interpretation, tol: float = TOLERANCE
) -> AuditReport:
    """Measure all four Hardy quantities for the pair (D1=i, D2=j).

    The values are exact; each verdict is |value - target| <= tol, decided
    by :func:`~hardylab.core.within_tolerance` on integer ratios.  Each
    conditional is the joint probability of its context over the marginal
    of the condition (a Bell branch, of weight 1/4).  The audit computes
    its six Born weights.
    """
    _check_inputs(interp, i, j)
    tol_ratio = check_tolerance(tol).as_integer_ratio()
    values = _values(born_weight(op, TOTAL_STATE) for op in _audited(i, j, interp))
    return AuditReport(i, j, interp, *_decide(values, tol_ratio))


def _values(weights) -> tuple[tuple[int, int], ...]:
    """The four exact values of an audit, each as integers ``(p, q)``
    standing for p/q, from the Born weights of its six operators in the
    order :func:`_audited` gives them.  A conditional (a/b) / (c/d) is
    a*d / (b*c)."""
    joint, (a, b), (c, d), (e, f), (g, h), u1u2 = weights
    return joint, (a * d, b * c), (e * h, f * g), u1u2


def _decide(values: tuple, tol_ratio: tuple[int, int]) -> tuple[HardyClaimSet, dict]:
    """The claim set of four exact values and a new dict of their verdicts
    at ``tol_ratio``."""
    return (
        HardyClaimSet(*(Fraction(p, q) for p, q in values)),
        {key: within_tolerance(value, target, tol_ratio)
         for value, (key, target) in zip(values, TARGET_RATIOS.items())},
    )


def enumerate_all_pairs(
    interp: Interpretation, tol: float = TOLERANCE
) -> tuple[list[AuditReport], dict]:
    """Audit all 16 Bell-pair combinations plus a roll-up summary.

    The reports come in the fixed order (psi-, psi+, phi-, phi+) for D1
    crossed with the same for D2, so repeated runs are byte-identical.
    The sweep walks the reading's plan (:func:`_plan`): the 16 pairs with
    their six operators each, and the distinct operators among them.  It
    first weighs each distinct operator once: 33 of the 96 audited under
    ``fixed``, 48 under ``collapsed``.  Then it decides each distinct set
    of four values once, 2 under ``fixed`` and 1 under ``collapsed``, and
    counts the pairs that share it; each report gets its own verdicts.
    The summary is summed over the distinct sets times their counts,
    which is exact, so it equals the sum over the 16 reports.  The
    weights, decisions and counts are dropped when the call returns.
    """
    _check_inputs(interp)
    tol_ratio = check_tolerance(tol).as_integer_ratio()
    pairs, distinct = _plan(interp)
    weights = {op: born_weight(op, TOTAL_STATE) for op in distinct}  # for this call only
    decided = {}  # four exact values -> [claim set, verdicts, pair count], for this call only
    reports = []
    for i, j, ops in pairs:
        values = _values(map(weights.__getitem__, ops))
        entry = decided.get(values)
        if entry is None:
            entry = decided[values] = [*_decide(values, tol_ratio), 0]
        entry[2] += 1
        reports.append(AuditReport(i, j, interp, entry[0], dict(entry[1])))
    sets = decided.values()
    joints = [(values[0], n) for values, (_, _, n) in decided.items()]
    den = math.lcm(*(q for (_, q), _ in joints))
    summary = {
        "sum_p_joint": float(Fraction(sum(n * p * (den // q) for (p, q), n in joints), den)),
        "pairs_passing_all": sum(n for _, verdicts, n in sets if all(verdicts.values())),
        "per_claim_pass_counts": {
            key: sum(n for _, verdicts, n in sets if verdicts[key]) for key in HardyClaimSet._fields
        },
    }
    return reports, summary


def quantum_probability_table(i: BellIndex, j: BellIndex, interp: Interpretation):
    """The exact statistics an experiment on the total state would collect,
    as the :class:`hardylab.lhv.ExactTable` of the four contexts'
    :func:`joint_outcome_table` grids, put over the lcm of their dens."""
    from .lhv import ExactTable  # here only: ``audit`` and ``sample`` never load lhv

    tables = [joint_outcome_table(*context_observables(key, i, j, interp), TOTAL_STATE)
              for key in CONTEXT_KEYS]
    den = math.lcm(*(d for _, d in tables))
    cells = [n * (den // d) for grid, d in tables for row in grid for n in row]
    g = math.gcd(den, *cells)
    return ExactTable([n // g for n in cells], den // g)


def _lab(i: BellIndex, j: BellIndex, interp: Interpretation) -> tuple[ObservableOp, ...]:
    """D1, D2, U1 and U2 of the pair (D1=i, D2=j): U1 reads D2's outcome, U2 D1's."""
    return build_d("A1", i), build_d("2B", j), build_u("1", interp, j), build_u("2", interp, i)


@cache
def _audited(i: BellIndex, j: BellIndex, interp: Interpretation) -> tuple[ObservableOp, ...]:
    """The six operators an audit of the pair (D1=i, D2=j) weighs, in the
    order :func:`_values` reads their weights: D1*D2, D1*U2, D1, U1*D2,
    D2, U1*U2.  Operators only, like every lab entry: never their weights."""
    d1, d2, u1, u2 = _lab(i, j, interp)
    return _product(d1, d2), _product(d1, u2), d1, _product(u1, d2), d2, _product(u1, u2)


@cache
def _plan(interp: Interpretation) -> tuple[tuple, tuple[ObservableOp, ...]]:
    """A sweep's plan for one reading: the 16 entries ``(i, j, six
    operators)`` in the reporting order, then the distinct operators among
    them in first-seen order.  Operators only: never their weights."""
    pairs = tuple((i, j, _audited(i, j, interp)) for i in BELL_ORDER for j in BELL_ORDER)
    return pairs, tuple(dict.fromkeys(op for _, _, ops in pairs for op in ops))


def context_observables(
    key: str,
    d1_bell: BellIndex = BellIndex.PSI_MINUS,
    d2_bell: BellIndex = BellIndex.PSI_MINUS,
    interp: Interpretation = Interpretation.FIXED_BASIS,
) -> tuple[ObservableOp, ObservableOp]:
    """Look up the observable pair of a context token like ``"d1u2"``."""
    key, names = key.lower(), ("d1", "d2", "u1", "u2")  # in the order _lab returns them
    if len(key) != 4 or key[:2] not in names or key[2:] not in names:
        raise HardyLabError(f"bad context {key!r}; want two of d1,d2,u1,u2")
    _check_inputs(interp, d1_bell, d2_bell)
    lab = _lab(d1_bell, d2_bell, interp)
    return lab[names.index(key[:2])], lab[names.index(key[2:])]
