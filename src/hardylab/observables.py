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

The state, its expansions, the 18 distinct operators and the commuting
products the audit forms make up the lab: each is built, and checked, on
its first lookup and then reused for the rest of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Mapping

import numpy as np

from .core import (
    CANONICAL_SLOTS,
    EmptyBranchError,
    HardyLabError,
    NonCommutingError,
    ObservableOp,
    StateVector,
    apply,
    born_probability,
    collapse,
    commutator_norm,
    reduced_density,
    tolerance,
)
from .protocol import (
    BELL_ORDER,
    BellIndex,
    BranchExpansion,
    bell_state,
    expand_in_bell_basis,
    make_total_state,
)


class Interpretation(Enum):
    """How the single-qubit observables U1/U2 are read."""

    FIXED_BASIS = "fixed"
    COLLAPSED_STATE = "collapsed"


PAIR_SLOTS: Mapping[str, tuple[str, str]] = {"A1": ("A", "1"), "2B": ("2", "B")}

CONTEXT_KEYS = ("d1d2", "d1u2", "u1d2", "u1u2")


# --- the lab ----------------------------------------------------------------
# Every entry is built on its first lookup and kept for the process.  The
# key holds every tolerance the construction reads (the explicit ``tol``
# and the global ``tolerance()``), so a lookup under another tolerance
# builds and checks its own entry.  Entries are immutable, so sharing them
# is safe; probabilities and reports are never cached.


@cache
def _total_state(global_tol: float) -> StateVector:
    return make_total_state()


@cache
def _expansion(measured: tuple[str, str], tol: float, global_tol: float) -> BranchExpansion:
    return expand_in_bell_basis(_total_state(global_tol), measured, tol)


@cache
def _d(pair_slot: str, index: BellIndex, global_tol: float) -> ObservableOp:
    which = "D1" if pair_slot == "A1" else "D2"
    return ObservableOp.projector_onto(
        bell_state(index, PAIR_SLOTS[pair_slot]),
        within=CANONICAL_SLOTS,
        name=f"{which}[{index.value}]",
    )


@cache
def _u(
    slot: str,
    interp: Interpretation,
    partner_outcome: BellIndex | None,
    tol: float,
    global_tol: float,
) -> ObservableOp:
    which = f"U{slot}"
    if interp is Interpretation.FIXED_BASIS:
        return ObservableOp.projector_onto(
            StateVector(np.array([1, 0], dtype=complex), (slot,)),
            within=CANONICAL_SLOTS,
            name=f"{which}[z+]",
        )
    measured = ("A", "1") if slot == "2" else ("2", "B")
    branch = _expansion(measured, tol, global_tol).branch(partner_outcome)
    if branch.empty:
        raise EmptyBranchError(
            f"branch {partner_outcome.value} of the {measured} expansion is empty"
        )
    return ObservableOp.projector_onto(
        _pure_slot_state(branch.residual, slot, tol),
        within=CANONICAL_SLOTS,
        name=f"{which}[collapsed:{partner_outcome.value}]",
    )


@cache
def _product(first: ObservableOp, second: ObservableOp, global_tol: float) -> ObservableOp:
    return first @ second


def build_d(pair_slot: str, index: BellIndex) -> ObservableOp:
    """Bell-state projector on one station's pair, identity elsewhere."""
    if pair_slot not in PAIR_SLOTS:
        raise HardyLabError(f"unknown pair slot {pair_slot!r} (want A1 or 2B)")
    return _d(pair_slot, index, tolerance())


def _pure_slot_state(residual: StateVector, slot: str, tol: float) -> StateVector:
    """Extract the pure single-qubit state of one slot of a product residual."""
    rho = reduced_density(residual, slot)
    evals, evecs = np.linalg.eigh(rho)
    if evals[-1] < 1.0 - tol:
        raise HardyLabError(
            f"slot {slot!r} of the residual is not pure (top weight {evals[-1]!r})"
        )
    vec = evecs[:, -1]
    k = int(np.argmax(np.abs(vec)))
    vec = vec / (vec[k] / abs(vec[k]))
    return StateVector(vec, (slot,))


def build_u(
    slot: str,
    interp: Interpretation,
    partner_outcome: BellIndex,
    tol: float | None = None,
) -> ObservableOp:
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
    return _u(slot, interp, partner_outcome, tolerance(tol), tolerance())


def conditional_probability(
    cond: ObservableOp,
    then: ObservableOp,
    s: StateVector,
    tol: float | None = None,
) -> float:
    """P(then = 1 | cond = 1) for commuting projectors on a pure state.

    Refuses non-commuting pairs outright: the quantity would depend on an
    arbitrary ordering convention, and every pair this construction uses
    commutes, so a non-commuting argument signals a misuse.
    """
    if commutator_norm(cond, then) > tolerance(tol):
        raise NonCommutingError(
            f"{cond.name} and {then.name} do not commute; refusing a "
            "convention-dependent conditional"
        )
    _, post = collapse(cond, s, tol)  # raises ZeroProbabilityError for P(cond) = 0
    return born_probability(then, post, tol)


def joint_outcome_table(
    first: ObservableOp,
    second: ObservableOp,
    s: StateVector,
    tol: float | None = None,
) -> np.ndarray:
    """2x2 joint distribution [a][b] of two commuting projectors.

    Entries below the tolerance are clamped to exact zero so impossible
    cells stay impossible downstream.
    """
    tol_v = tolerance(tol)
    if commutator_norm(first, second) > tol_v:
        raise NonCommutingError(f"{first.name} and {second.name} do not commute")
    u = apply(first, s).amps
    v = apply(second, s).amps
    p_a = float(np.vdot(u, u).real)
    p_b = float(np.vdot(v, v).real)
    p11 = float(np.vdot(u, v).real)
    table = np.array(
        [[1.0 - p_a - p_b + p11, p_b - p11], [p_a - p11, p11]], dtype=float
    )
    table[np.abs(table) <= tol_v] = 0.0
    if (table < 0).any() or abs(table.sum() - 1.0) > tol_v:
        raise HardyLabError(f"malformed outcome table {table!r}")
    return table


@dataclass(frozen=True)
class HardyClaimSet:
    """The four audited quantities (measured or claimed)."""

    p_joint: float
    c_d1u2: float
    c_d2u1: float
    p_u1u2: float

    def to_jsonable(self) -> dict:
        return {
            "p_joint": self.p_joint,
            "c_d1u2": self.c_d1u2,
            "c_d2u1": self.c_d2u1,
            "p_u1u2": self.p_u1u2,
        }


#: The advertised values the audit compares against.
CLAIM_TARGETS = HardyClaimSet(p_joint=1.0 / 16.0, c_d1u2=1.0, c_d2u1=1.0, p_u1u2=0.0)


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
    i: BellIndex,
    j: BellIndex,
    interp: Interpretation,
    state: StateVector | None = None,
    tol: float | None = None,
) -> AuditReport:
    """Measure all four Hardy quantities for the pair (D1=i, D2=j)."""
    state = _total_state(tolerance()) if state is None else state
    d1, d2 = context_observables("d1d2", i, j, interp, tol)
    u1, u2 = context_observables("u1u2", i, j, interp, tol)
    measured = HardyClaimSet(
        p_joint=born_probability(_product(d1, d2, tolerance()), state, tol),
        c_d1u2=conditional_probability(d1, u2, state, tol),
        c_d2u1=conditional_probability(d2, u1, state, tol),
        p_u1u2=born_probability(_product(u1, u2, tolerance()), state, tol),
    )
    tol_v = tolerance(tol)
    verdicts = {
        "p_joint": abs(measured.p_joint - CLAIM_TARGETS.p_joint) <= tol_v,
        "c_d1u2": abs(measured.c_d1u2 - CLAIM_TARGETS.c_d1u2) <= tol_v,
        "c_d2u1": abs(measured.c_d2u1 - CLAIM_TARGETS.c_d2u1) <= tol_v,
        "p_u1u2": abs(measured.p_u1u2 - CLAIM_TARGETS.p_u1u2) <= tol_v,
    }
    return AuditReport(i, j, interp, measured, verdicts)


def enumerate_all_pairs(
    interp: Interpretation, tol: float | None = None
) -> tuple[list[AuditReport], dict]:
    """Audit all 16 Bell-pair combinations plus a roll-up summary.

    The reports come in the fixed order (psi-, psi+, phi-, phi+) for D1
    crossed with the same for D2, so repeated runs are byte-identical.
    """
    state = _total_state(tolerance())
    reports = [
        audit_pair(i, j, interp, state, tol) for i in BELL_ORDER for j in BELL_ORDER
    ]
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


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome tables for the four commuting measurement contexts."""

    contexts: Mapping[str, np.ndarray]  # keys d1d2, d1u2, u1d2, u1u2

    def __post_init__(self) -> None:
        if set(self.contexts) != set(CONTEXT_KEYS):
            raise HardyLabError(f"contexts must be exactly {CONTEXT_KEYS}")
        frozen = {}
        for key in CONTEXT_KEYS:
            arr = np.array(self.contexts[key], dtype=float).reshape(2, 2)
            arr.setflags(write=False)
            frozen[key] = arr
        object.__setattr__(self, "contexts", frozen)

    def to_jsonable(self) -> dict:
        return {key: self.contexts[key].tolist() for key in CONTEXT_KEYS}


def quantum_probability_table(
    i: BellIndex,
    j: BellIndex,
    interp: Interpretation,
    state: StateVector | None = None,
    tol: float | None = None,
) -> ProbabilityTable:
    """The exact statistics an experiment on this state would collect."""
    state = _total_state(tolerance()) if state is None else state
    d1, d2 = context_observables("d1d2", i, j, interp, tol)
    u1, u2 = context_observables("u1u2", i, j, interp, tol)
    return ProbabilityTable(
        {
            "d1d2": joint_outcome_table(d1, d2, state, tol),
            "d1u2": joint_outcome_table(d1, u2, state, tol),
            "u1d2": joint_outcome_table(u1, d2, state, tol),
            "u1u2": joint_outcome_table(u1, u2, state, tol),
        }
    )


def context_observables(
    key: str,
    d1_bell: BellIndex = BellIndex.PSI_MINUS,
    d2_bell: BellIndex = BellIndex.PSI_MINUS,
    interp: Interpretation = Interpretation.FIXED_BASIS,
    tol: float | None = None,
) -> tuple[ObservableOp, ObservableOp]:
    """Look up the observable pair of a context token like ``"d1u2"``."""
    builders = {
        "d1": lambda: build_d("A1", d1_bell),
        "d2": lambda: build_d("2B", d2_bell),
        "u1": lambda: build_u("1", interp, d2_bell, tol),
        "u2": lambda: build_u("2", interp, d1_bell, tol),
    }
    key = key.lower()
    if len(key) != 4 or key[:2] not in builders or key[2:] not in builders:
        raise HardyLabError(f"bad context {key!r}; want two of d1,d2,u1,u2")
    return builders[key[:2]](), builders[key[2:]]()
