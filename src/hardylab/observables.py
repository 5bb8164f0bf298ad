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

Every probability is an exact Fraction.  The 18 distinct operators and the
commuting products the audit forms are built on their first lookup and
then reused for the rest of the process; probabilities and reports are
computed afresh on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Mapping

from .core import (
    EmptyBranchError,
    HardyLabError,
    NonCommutingError,
    ObservableOp,
    StateVector,
    apply,
    born_probability,
    collapse,
    commutator_norm,
    TOLERANCE,
    partial_overlap,
)
from .protocol import BELL_ORDER, PAIR_SLOTS, TOTAL_STATE, BellIndex, bell_expansion, bell_state


class Interpretation(Enum):
    """How the single-qubit observables U1/U2 are read."""

    FIXED_BASIS = "fixed"
    COLLAPSED_STATE = "collapsed"


CONTEXT_KEYS = ("d1d2", "d1u2", "u1d2", "u1u2")


# --- the lab ----------------------------------------------------------------
# Every entry is built on its first lookup and kept for the process.
# Entries are immutable, so sharing them is safe.


@cache
def _d(pair_slot: str, index: BellIndex) -> ObservableOp:
    which = "D1" if pair_slot == "A1" else "D2"
    return ObservableOp(bell_state(index, PAIR_SLOTS[pair_slot]), f"{which}[{index.value}]")


@cache
def _u(slot: str, interp: Interpretation, partner_outcome: BellIndex | None) -> ObservableOp:
    which = f"U{slot}"
    if interp is Interpretation.FIXED_BASIS:
        return ObservableOp(StateVector((1, 0), (slot,)), f"{which}[z+]")
    pair = "A1" if slot == "2" else "2B"
    branch = bell_expansion(pair).branch(partner_outcome)
    if branch.empty:
        raise EmptyBranchError(f"branch {partner_outcome.value} of the {pair} expansion is empty")
    return ObservableOp(
        _pure_slot_state(branch.residual, slot),
        f"{which}[collapsed:{partner_outcome.value}]",
    )


@cache
def _product(first: ObservableOp, second: ObservableOp) -> ObservableOp:
    return first @ second


def build_d(pair_slot: str, index: BellIndex) -> ObservableOp:
    """Bell-state projector on one station's pair, identity elsewhere."""
    if pair_slot not in PAIR_SLOTS:
        raise HardyLabError(f"unknown pair slot {pair_slot!r} (want A1 or 2B)")
    return _d(pair_slot, index)


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
    if interp is Interpretation.FIXED_BASIS:
        partner_outcome = None
    return _u(slot, interp, partner_outcome)


def _require_commuting(first: ObservableOp, second: ObservableOp, what: str) -> None:
    if commutator_norm(first, second):
        raise NonCommutingError(f"{first.name} and {second.name} do not commute{what}")


def conditional_probability(cond: ObservableOp, then: ObservableOp, s: StateVector) -> Fraction:
    """P(then = 1 | cond = 1) for commuting projectors on a pure state.

    Refuses non-commuting pairs outright: the quantity would depend on an
    arbitrary ordering convention, and every pair this construction uses
    commutes, so a non-commuting argument signals a misuse.
    """
    _require_commuting(cond, then, "; refusing a convention-dependent conditional")
    _, post = collapse(cond, s)  # raises ZeroProbabilityError for P(cond) = 0
    return born_probability(then, post)


def joint_outcome_table(
    first: ObservableOp, second: ObservableOp, s: StateVector
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Exact 2x2 joint distribution [a][b] of two commuting projectors."""
    _require_commuting(first, second, "")
    u, v = apply(first, s), apply(second, s)
    p_a = Fraction(sum(map(mul, u.amps, u.amps)), u.norm2)
    p_b = Fraction(sum(map(mul, v.amps, v.amps)), v.norm2)
    # <u|v> = u.v / sqrt(u.norm2 * v.norm2); that product is a square, as
    # both are a projector's norm2 squared times s.norm2
    p11 = Fraction(sum(map(mul, u.amps, v.amps)), math.isqrt(u.norm2 * v.norm2))
    table = ((1 - p_a - p_b + p11, p_b - p11), (p_a - p11, p11))
    if any(p < 0 for row in table for p in row):
        raise HardyLabError(f"malformed outcome table {[[str(p) for p in row] for row in table]}")
    return table


@dataclass(frozen=True)
class HardyClaimSet:
    """The four audited quantities (measured or claimed), exact or float."""

    p_joint: Fraction | float
    c_d1u2: Fraction | float
    c_d2u1: Fraction | float
    p_u1u2: Fraction | float

    def to_jsonable(self) -> dict:
        return {
            "p_joint": float(self.p_joint),
            "c_d1u2": float(self.c_d1u2),
            "c_d2u1": float(self.c_d2u1),
            "p_u1u2": float(self.p_u1u2),
        }


#: The advertised values the audit compares against.
CLAIM_TARGETS = HardyClaimSet(
    p_joint=Fraction(1, 16), c_d1u2=Fraction(1), c_d2u1=Fraction(1), p_u1u2=Fraction(0)
)


@dataclass(frozen=True)
class AuditReport:
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

    The values are exact; the verdicts accept |value - target| <= tol.
    """
    d1, d2 = context_observables("d1d2", i, j, interp)
    u1, u2 = context_observables("u1u2", i, j, interp)
    measured = HardyClaimSet(
        p_joint=born_probability(_product(d1, d2), TOTAL_STATE),
        c_d1u2=conditional_probability(d1, u2, TOTAL_STATE),
        c_d2u1=conditional_probability(d2, u1, TOTAL_STATE),
        p_u1u2=born_probability(_product(u1, u2), TOTAL_STATE),
    )
    tol_v = Fraction(tol)  # the float's exact value, converted once
    verdicts = {
        "p_joint": abs(measured.p_joint - CLAIM_TARGETS.p_joint) <= tol_v,
        "c_d1u2": abs(measured.c_d1u2 - CLAIM_TARGETS.c_d1u2) <= tol_v,
        "c_d2u1": abs(measured.c_d2u1 - CLAIM_TARGETS.c_d2u1) <= tol_v,
        "p_u1u2": abs(measured.p_u1u2 - CLAIM_TARGETS.p_u1u2) <= tol_v,
    }
    return AuditReport(i, j, interp, measured, verdicts)


def enumerate_all_pairs(
    interp: Interpretation, tol: float = TOLERANCE
) -> tuple[list[AuditReport], dict]:
    """Audit all 16 Bell-pair combinations plus a roll-up summary.

    The reports come in the fixed order (psi-, psi+, phi-, phi+) for D1
    crossed with the same for D2, so repeated runs are byte-identical.
    """
    reports = [audit_pair(i, j, interp, tol) for i in BELL_ORDER for j in BELL_ORDER]
    per_claim = {
        key: sum(1 for r in reports if r.verdicts[key])
        for key in ("p_joint", "c_d1u2", "c_d2u1", "p_u1u2")
    }
    summary = {
        "sum_p_joint": float(sum(r.measured.p_joint for r in reports)),
        "pairs_passing_all": sum(1 for r in reports if r.all_pass),
        "per_claim_pass_counts": per_claim,
    }
    return reports, summary


def quantum_probability_table(
    i: BellIndex, j: BellIndex, interp: Interpretation
) -> dict[str, tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    """The exact statistics an experiment on the total state would collect:
    each context key maps to its :func:`joint_outcome_table`, a table as
    :func:`hardylab.lhv.rationalize_table` takes it."""
    return {
        key: joint_outcome_table(*context_observables(key, i, j, interp), TOTAL_STATE)
        for key in CONTEXT_KEYS
    }


def context_observables(
    key: str,
    d1_bell: BellIndex = BellIndex.PSI_MINUS,
    d2_bell: BellIndex = BellIndex.PSI_MINUS,
    interp: Interpretation = Interpretation.FIXED_BASIS,
) -> tuple[ObservableOp, ObservableOp]:
    """Look up the observable pair of a context token like ``"d1u2"``."""
    builders = {
        "d1": lambda: build_d("A1", d1_bell),
        "d2": lambda: build_d("2B", d2_bell),
        "u1": lambda: build_u("1", interp, d2_bell),
        "u2": lambda: build_u("2", interp, d1_bell),
    }
    key = key.lower()
    if len(key) != 4 or key[:2] not in builders or key[2:] not in builders:
        raise HardyLabError(f"bad context {key!r}; want two of d1,d2,u1,u2")
    return builders[key[:2]](), builders[key[2:]]()
