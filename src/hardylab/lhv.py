"""Local-hidden-variable side: deduction replay and exact feasibility.

A local deterministic model assigns a fixed 0/1 value to each of the four
observables; a local model in general is a probability mixture over the
16 such assignments.  :func:`feasibility` decides, in exact rational
arithmetic end to end, whether a given four-context probability table is
such a mixture, and always emits a machine-checkable certificate:

* feasible   -> an explicit weight vector reproducing every cell exactly;
* infeasible -> a separating linear functional (rational coefficients)
  that is nonnegative on every deterministic assignment but strictly
  negative on the table, together with the human-readable deduction chain
  whenever the table exhibits the Hardy pattern.

Stochastic local models are mixtures of deterministic ones, so deciding
over the 16-vertex polytope loses no generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Mapping, Sequence

from .core import HardyLabError, tolerance
from .observables import CONTEXT_KEYS, HardyClaimSet, ProbabilityTable

#: Denominator bound used when converting float tables to exact rationals.
MAX_DENOMINATOR = 2**20

#: One deterministic assignment: values (d1, d2, u1, u2), each 0 or 1.
Assignment = tuple[int, int, int, int]

ASSIGNMENTS: tuple[Assignment, ...] = tuple(product((0, 1), repeat=4))

# context key -> the assignment components it constrains (first, second)
_CONTEXT_SLOTS: Mapping[str, tuple[int, int]] = {
    "d1d2": (0, 1),
    "d1u2": (0, 3),
    "u1d2": (2, 1),
    "u1u2": (2, 3),
}

#: One table cell: (context key, outcome of first, outcome of second).
Cell = tuple[str, int, int]

CELLS: tuple[Cell, ...] = tuple(
    (key, a, b) for key in CONTEXT_KEYS for a in (0, 1) for b in (0, 1)
)

ExactTable = dict[str, list[list[Fraction]]]


class RationalizationError(HardyLabError):
    """A float entry does not sit near a small-denominator rational."""


class MalformedTableError(HardyLabError):
    """A probability table fails its shape or normalization contract."""


def assignment_matches(assignment: Assignment, cell: Cell) -> bool:
    key, a, b = cell
    i, j = _CONTEXT_SLOTS[key]
    return assignment[i] == a and assignment[j] == b


#: Cell -> its 0/1 row over ASSIGNMENTS: the constraint matrix of the
#: feasibility LP, built once and shared by the solver and the validators.
_INCIDENCE: Mapping[Cell, tuple[int, ...]] = {
    cell: tuple(int(assignment_matches(a, cell)) for a in ASSIGNMENTS) for cell in CELLS
}


def _on_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of ``values`` over ``den``, the lcm of their denominators.

    Each value equals ``numerator / den``.  The scale is positive, so the
    sign of any sum of values, and any equality between such sums, carries
    over to the integers unchanged.
    """
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def rationalize_table(
    table: ProbabilityTable | Mapping[str, Sequence[Sequence]],
    tol: float | None = None,
    max_denominator: int = MAX_DENOMINATOR,
) -> ExactTable:
    """Convert a table to exact rationals, refusing to round silently.

    Each float entry must be within ``tol`` of a rational with denominator
    at most ``max_denominator``; each context must then sum to exactly 1,
    checked on integers over the context's common denominator.  Entries
    that are already Fractions or ints pass through unchanged.
    """
    tol = tolerance(tol)
    raw = table.contexts if isinstance(table, ProbabilityTable) else table
    if set(raw) != set(CONTEXT_KEYS):
        raise MalformedTableError(f"contexts must be exactly {CONTEXT_KEYS}")
    exact: ExactTable = {}
    for key in CONTEXT_KEYS:
        grid = [list(row) for row in raw[key]]
        if len(grid) != 2 or any(len(row) != 2 for row in grid):
            raise MalformedTableError(f"context {key!r} is not a 2x2 table")
        rows = []
        for row in grid:
            out = []
            for value in row:
                if isinstance(value, Fraction):
                    frac = value
                elif isinstance(value, int):
                    frac = Fraction(value)
                else:
                    frac = Fraction(float(value)).limit_denominator(max_denominator)
                    if abs(float(frac) - float(value)) > tol:
                        raise RationalizationError(
                            f"{value!r} in context {key!r} is not within {tol} of a "
                            f"rational with denominator <= {max_denominator}"
                        )
                if frac.numerator < 0:
                    raise MalformedTableError(f"negative entry {frac} in {key!r}")
                out.append(frac)
            rows.append(out)
        numerators, den = _on_common_denominator(rows[0] + rows[1])
        if sum(numerators) != den:
            raise MalformedTableError(f"context {key!r} does not sum to 1")
        exact[key] = rows
    return exact


# --- deduction replay -----------------------------------------------------


def _shown(value):
    """A value as a report prints it: its float, unless a nonzero value
    underflows to 0.0, which is printed as the exact Fraction."""
    f = float(value)
    return f if f or not value else value


@dataclass(frozen=True)
class DeductionStep:
    index: int
    name: str
    fired: bool
    detail: str

    def to_jsonable(self) -> dict:
        return {
            "step": self.index,
            "name": self.name,
            "fired": self.fired,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class DeductionTrace:
    steps: tuple[DeductionStep, ...]
    contradiction: bool
    halted_at: int | None

    def to_jsonable(self) -> dict:
        return {
            "steps": [s.to_jsonable() for s in self.steps],
            "contradiction": self.contradiction,
            "halted_at": self.halted_at,
        }


def replay_deductions(claims: HardyClaimSet, tol: float | None = None) -> DeductionTrace:
    """Replay the element-of-reality argument on a set of claimed values.

    The rules fire only on certainties: the conditionals must equal 1 and
    the final joint probability must equal 0 (within ``tol``).  The trace
    records each step; if a premise fails, later steps are not reached and
    ``halted_at`` names the first rule that could not fire.
    """
    tol = tolerance(tol)
    shown = {key: _shown(value) for key, value in vars(claims).items()}
    exists = claims.p_joint > tol
    c12_certain = abs(claims.c_d1u2 - 1.0) <= tol
    c21_certain = abs(claims.c_d2u1 - 1.0) <= tol
    u1u2_zero = abs(claims.p_u1u2) <= tol

    steps: list[DeductionStep] = []

    fired1 = exists and c12_certain
    if not exists:
        detail = f"joint D1=D2=1 run has probability {shown['p_joint']}; no run to reason about"
    elif not c12_certain:
        detail = f"P(U2=1|D1=1) = {shown['c_d1u2']} is not a certainty"
    else:
        detail = (
            f"a D1=D2=1 run exists (probability {shown['p_joint']}) and "
            "P(U2=1|D1=1) = 1, so U2=1 is predetermined for it"
        )
    steps.append(DeductionStep(1, "U2 is an element of reality", fired1, detail))

    fired2 = fired1
    steps.append(
        DeductionStep(
            2,
            "locality transfer",
            fired2,
            "the distant choice of measurement cannot change the predetermined U2"
            if fired2
            else "not reached",
        )
    )

    fired3 = fired2 and c21_certain
    if not fired2:
        detail = "not reached"
    elif not c21_certain:
        detail = f"P(U1=1|D2=1) = {shown['c_d2u1']} is not a certainty"
    else:
        detail = "the same run has D2=1 and P(U1=1|D2=1) = 1, so U1=1 is predetermined"
    steps.append(DeductionStep(3, "U1 is an element of reality", fired3, detail))

    fired4 = fired3 and u1u2_zero
    if not fired3:
        detail = "not reached"
    elif not u1u2_zero:
        detail = (
            f"the run would give U1=U2=1, but P(U1=1,U2=1) = {shown['p_u1u2']} "
            "does not forbid that outcome"
        )
    else:
        detail = (
            "the run would give U1=U2=1, yet P(U1=1,U2=1) = 0: the local model "
            "contradicts the statistics"
        )
    steps.append(DeductionStep(4, "joint contradiction", fired4, detail))

    if fired4:
        return DeductionTrace(tuple(steps), True, None)
    halted = next(s.index for s in steps if not s.fired)
    return DeductionTrace(tuple(steps), False, halted)


# --- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class LhvModel:
    """Mixture over deterministic assignments, exact weights summing to 1.

    The invariants are checked on the weights' numerators over their common
    denominator: each must be >= 0, and together they must sum to it.
    """

    weights: Mapping[Assignment, Fraction]

    def __post_init__(self) -> None:
        weights = {k: Fraction(v) for k, v in self.weights.items()}
        numerators, den = _on_common_denominator(list(weights.values()))
        if any(w < 0 for w in numerators):
            raise HardyLabError("model weights must be nonnegative")
        if sum(numerators) != den:
            raise HardyLabError("model weights must sum to exactly 1")
        object.__setattr__(self, "weights", weights)

    def to_jsonable(self) -> dict:
        return {
            "weights": [
                {
                    "assignment": {"d1": a[0], "d2": a[1], "u1": a[2], "u2": a[3]},
                    "weight": {"num": w.numerator, "den": w.denominator},
                }
                for a, w in sorted(self.weights.items())
                if w != 0
            ]
        }


@dataclass(frozen=True)
class InfeasibilityWitness:
    """Separating functional, optionally with the deduction chain behind it.

    ``functional`` maps table cells to rational coefficients f such that
    sum(f * cell_value) < 0 for the rejected table while
    sum(f * [assignment hits cell]) >= 0 for all 16 assignments; no
    nonnegative mixture can therefore reproduce the table.
    """

    functional: Mapping[Cell, Fraction]
    chain: tuple[DeductionStep, ...] | None = None

    @property
    def kind(self) -> str:
        return "deduction-chain" if self.chain is not None else "separating-functional"

    def to_jsonable(self) -> dict:
        payload = {
            "kind": self.kind,
            "functional": [
                {
                    "context": key,
                    "first": a,
                    "second": b,
                    "coefficient": {"num": c.numerator, "den": c.denominator},
                }
                for (key, a, b), c in sorted(self.functional.items())
            ],
        }
        if self.chain is not None:
            payload["chain"] = [s.to_jsonable() for s in self.chain]
        return payload


@dataclass(frozen=True)
class LhvCertificate:
    verdict: str  # "feasible" | "infeasible"
    model: LhvModel | None = None
    witness: InfeasibilityWitness | None = None

    def __post_init__(self) -> None:
        if self.verdict not in ("feasible", "infeasible"):
            raise HardyLabError(f"bad verdict {self.verdict!r}")
        if (self.verdict == "feasible") != (self.model is not None) or (
            self.verdict == "infeasible"
        ) != (self.witness is not None):
            raise HardyLabError("certificate must carry exactly the matching payload")

    def to_jsonable(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.model is not None:
            out["model"] = self.model.to_jsonable()
        if self.witness is not None:
            out["witness"] = self.witness.to_jsonable()
        return out


# --- exact phase-1 simplex ------------------------------------------------


def _phase1_simplex(
    rows: Sequence[Sequence[int]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Exact feasibility of ``A x = b, x >= 0`` with ``b >= 0``.

    ``rows`` holds the integer matrix A, one row per constraint.  Returns
    ``(x, None)`` when feasible.  Otherwise returns ``(None, y)`` with the
    Farkas dual satisfying ``y . A_j <= 0`` for every column and
    ``y . b > 0``.  Bland's rule guarantees termination.

    The tableau is integer-preserving (fraction-free pivoting: J. Edmonds,
    J. Res. NBS 71B, 241 (1967); D. Avis, lrs).  b is scaled by D, the lcm
    of its denominators, and every entry is held as its true value times
    ``det``, the last pivot (1 at the start).  Each pivot is a positive
    coefficient, so ``det > 0`` and signs read off directly.  A pivot on
    ``p`` maps each other row and the cost row to ``(p*v - f*q) // det``
    and sets ``det = p``.  The division is exact: ``det`` equals det(B)
    for the current basis B, and det(B) * B^-1 = adj(B) is an integer
    matrix (Cramer's rule), so every entry of ``adj(B) [A | I | D b]``, and
    of the cost row built from it, is an integer.  Ratios are compared by
    cross-multiplication.  The pivot rules are those of the same simplex
    on Fractions, so it visits the same bases and returns the same x and y.
    """
    m, n = len(rhs), len(rows[0])
    scaled, scale = _on_common_denominator(rhs)
    # rows of [A | I | D*b], starting basis = artificial columns
    zeros = [0] * m
    tableau = [
        [*row, *zeros[:i], 1, *zeros[i + 1 :], b]
        for i, (row, b) in enumerate(zip(rows, scaled))
    ]
    basis = [n + i for i in range(m)]
    det = 1

    # reduced-cost row for objective: minimize the sum of artificials.  It
    # is c_j minus the column sum, and an artificial column sums to its c_j.
    cost = [-sum(column) for column in zip(*rows)] + zeros + [-sum(scaled)]

    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        for i, row in enumerate(tableau):
            coef = row[entering]
            if coef > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                here = row[-1] * tableau[pivot_row][entering]
                best = tableau[pivot_row][-1] * coef
                if here < best or (here == best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            # Σ artificials is bounded below by 0; an unbounded pivot
            # column cannot occur for this objective.
            raise HardyLabError("phase-1 simplex lost boundedness")
        prow = tableau[pivot_row]
        p = prow[entering]
        for i, row in enumerate(tableau):
            f = row[entering]
            # a row with f == 0 is unchanged when p == det
            if i != pivot_row and (f or p != det):
                tableau[i] = [(p * v - f * q) // det for v, q in zip(row, prow)]
        f = cost[entering]
        cost = [(p * v - f * q) // det for v, q in zip(cost, prow)]
        det = p
        basis[pivot_row] = entering

    if cost[-1] == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = Fraction(tableau[i][-1], det * scale)
        return x, None
    # duality: y_i = 1 - reduced cost of artificial column i; then
    # y.A_j = -cost_j <= 0 for structural columns and y.b = objective > 0.
    y = [Fraction(det - cost[n + i], det) for i in range(m)]
    return None, y


# --- feasibility decision -------------------------------------------------


def _hardy_pattern_cells(exact: ExactTable) -> dict[Cell, Fraction] | None:
    """The four-cell Hardy pattern, if this table exhibits it."""
    p = exact["d1d2"][1][1]
    if (
        p > 0
        and exact["d1u2"][1][0] == 0
        and exact["u1d2"][0][1] == 0
        and exact["u1u2"][1][1] == 0
    ):
        return {
            ("d1d2", 1, 1): Fraction(-1),
            ("d1u2", 1, 0): Fraction(1),
            ("u1d2", 0, 1): Fraction(1),
            ("u1u2", 1, 1): Fraction(1),
        }
    return None


def _chain_for_pattern(exact: ExactTable) -> tuple[DeductionStep, ...]:
    # The pattern established p > 0 exactly, so the replay must fire: tol=0
    # covers p below the float tolerance.
    claims = HardyClaimSet(p_joint=exact["d1d2"][1][1], c_d1u2=1, c_d2u1=1, p_u1u2=0)
    return replay_deductions(claims, tol=0.0).steps


def feasibility(
    table: ProbabilityTable | Mapping[str, Sequence[Sequence]] | ExactTable,
    tol: float | None = None,
) -> LhvCertificate:
    """Decide whether a table is a mixture of deterministic assignments.

    Accepts float or exact tables; the table is rationalized once (see
    :func:`rationalize_table`), and the decision and the re-check both use
    that exact table.  The decision runs in exact arithmetic:
    a phase-1 simplex over the 16 deterministic assignments, pivoted on
    Python ints.  Its tableau holds each value times ``det``, the current
    basis determinant (> 0), and every pivot divides exactly by the
    previous ``det`` (Edmonds 1967; Avis's lrs), so x and y come out as
    the same Fractions a Fraction tableau gives.  Infeasible
    tables showing the Hardy pattern get the deduction-chain witness with
    its canonical functional; otherwise the simplex dual supplies the
    separating functional.  Every certificate is validated by
    re-substitution, in integers, before it is returned (the check of
    :func:`validate_certificate`).
    """
    exact = rationalize_table(table, tol)
    rhs = [exact[key][a][b] for (key, a, b) in CELLS]
    x, y = _phase1_simplex([_INCIDENCE[cell] for cell in CELLS], rhs)

    if x is not None:
        model = LhvModel(dict(zip(ASSIGNMENTS, x)))
        cert = LhvCertificate("feasible", model=model)
    else:
        pattern = _hardy_pattern_cells(exact)
        if pattern is not None:
            witness = InfeasibilityWitness(pattern, chain=_chain_for_pattern(exact))
        else:
            functional = {
                cell: -y[k] for k, cell in enumerate(CELLS) if y[k] != 0
            }
            witness = InfeasibilityWitness(functional)
        cert = LhvCertificate("infeasible", witness=witness)

    if not _validate_exact(exact, cert):
        raise HardyLabError("internal error: produced certificate failed validation")
    return cert


def validate_certificate(
    table: ProbabilityTable | Mapping[str, Sequence[Sequence]] | ExactTable,
    cert: LhvCertificate,
    tol: float | None = None,
) -> bool:
    """Re-check a certificate against a table, exactly.

    The table is rationalized (a table that fails that does not validate)
    and checked in integers.  Feasible: the model must pass its invariants
    again, and every cell must be reproduced with exact rational equality.
    Infeasible: the functional must be keyed on table cells, strictly
    negative on the table and nonnegative on all 16 deterministic
    assignments (an all-zero or empty functional therefore never
    validates).
    """
    try:
        exact = rationalize_table(table, tol)
    except HardyLabError:
        return False
    return _validate_exact(exact, cert)


def _validate_exact(exact: ExactTable, cert: LhvCertificate) -> bool:
    """:func:`validate_certificate` on a rationalized table.

    The model's weights, the functional's coefficients and the table cells
    the functional reads are each put on their common denominator, which is
    positive, so each check compares integers: a model's cell sum against
    the table cell by cross-multiplication, the functional's value on the
    table against 0, and its sum over each assignment's cells against 0.
    """
    if cert.verdict == "feasible":
        if cert.model is None:
            return False
        try:
            weights = LhvModel(cert.model.weights).weights  # re-run the invariants
        except HardyLabError:
            return False
        numerators, den = _on_common_denominator([weights.get(a, 0) for a in ASSIGNMENTS])
        for (key, a, b), hits in _INCIDENCE.items():
            p = exact[key][a][b]
            if sum(map(mul, numerators, hits)) * p.denominator != p.numerator * den:
                return False
        return True

    witness = cert.witness
    if witness is None or not witness.functional:
        return False
    if not witness.functional.keys() <= _INCIDENCE.keys():
        return False
    coefficients, _ = _on_common_denominator(list(witness.functional.values()))
    values, _ = _on_common_denominator([exact[key][a][b] for key, a, b in witness.functional])
    if sum(map(mul, coefficients, values)) >= 0:
        return False
    columns = zip(*(_INCIDENCE[cell] for cell in witness.functional))
    return all(sum(map(mul, coefficients, column)) >= 0 for column in columns)


# --- the advertised-claims table -------------------------------------------


def claimed_hardy_table(p_joint: Fraction = Fraction(1, 16)) -> ExactTable:
    """The completed table encoding the advertised Hardy conditions.

    The conditions themselves pin only four facts: P(D1=1,D2=1) = p_joint,
    P(U2=1|D1=1) = 1, P(U1=1|D2=1) = 1, and P(U1=1,U2=1) = 0.  The rest of
    the table is completed from the quantum marginals: P(D1=1) = P(D2=1)
    = 1/4 (uniform Bell branch weights) and P(U1=1) = P(U2=1) = 1/2
    (singlet single-qubit marginals).  The completion is consistent for
    any 0 < p_joint <= 1/4, and the infeasibility witness only ever uses
    the four pinned facts, so the completion cannot be the source of the
    contradiction.
    """
    p = Fraction(p_joint)
    if not 0 < p <= Fraction(1, 4):
        raise HardyLabError(f"p_joint must lie in (0, 1/4], got {p}")
    q = Fraction(1, 4)  # P(D1=1) = P(D2=1)
    h = Fraction(1, 2)  # P(U1=1) = P(U2=1)
    return {
        "d1d2": [[1 - 2 * q + p, q - p], [q - p, p]],
        "d1u2": [[1 - h, h - q], [Fraction(0), q]],
        "u1d2": [[1 - h, Fraction(0)], [h - q, q]],
        "u1u2": [[Fraction(0), h], [h, Fraction(0)]],
    }


#: Where each number in the completed table comes from, for reporting.
CLAIMED_TABLE_NOTES = {
    "pinned": {
        "P(D1=1,D2=1)": "the advertised joint probability",
        "P(U2=0|D1=1)": "0, from the advertised certainty P(U2=1|D1=1)=1",
        "P(U1=0|D2=1)": "0, from the advertised certainty P(U1=1|D2=1)=1",
        "P(U1=1,U2=1)": "0, as advertised",
    },
    "derived": {
        "P(D1=1), P(D2=1)": "1/4 each, from the uniform Bell branch weights",
        "P(U1=1), P(U2=1)": "1/2 each, from the singlet single-qubit marginals",
    },
}
