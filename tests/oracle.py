"""Independent brute-force oracle used by the tests.

Everything above the reference section is built from raw numpy kron
products in the fixed (A, 1, 2, B) order, without touching the package's
slot-embedding or expansion machinery, so it can serve as a second route
for every derived expectation value.  The reference section holds slower
or test-only implementations the package once shipped; property tests
compare the package against them.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from hardylab.core import (
    DimensionMismatchError,
    HardyLabError,
    NormalizationError,
    OperatorInvariantError,
    StateVector,
    reduced_density,
    tolerance,
)
from hardylab.lhv import _INCIDENCE, CELLS, LhvModel, rationalize_table
from hardylab.sampler import CELL_ORDER, CountTable, exact_context_probabilities

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
XPLUS = (PLUS + MINUS) / np.sqrt(2.0)
XMINUS = (PLUS - MINUS) / np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

BELL_VECS = {
    "psi-": (np.kron(PLUS, MINUS) - np.kron(MINUS, PLUS)) / np.sqrt(2.0),
    "psi+": (np.kron(PLUS, MINUS) + np.kron(MINUS, PLUS)) / np.sqrt(2.0),
    "phi-": (np.kron(PLUS, PLUS) - np.kron(MINUS, MINUS)) / np.sqrt(2.0),
    "phi+": (np.kron(PLUS, PLUS) + np.kron(MINUS, MINUS)) / np.sqrt(2.0),
}


def proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def singlet_vec() -> np.ndarray:
    return BELL_VECS["psi-"]


def total_state_vec() -> np.ndarray:
    return np.kron(np.kron(PLUS, singlet_vec()), XPLUS)


def d1_matrix(bell: str) -> np.ndarray:
    return np.kron(proj(BELL_VECS[bell]), I4)


def d2_matrix(bell: str) -> np.ndarray:
    return np.kron(I4, proj(BELL_VECS[bell]))


def u1_matrix(vec: np.ndarray = PLUS) -> np.ndarray:
    return np.kron(np.kron(I2, proj(vec)), I4)


def u2_matrix(vec: np.ndarray = PLUS) -> np.ndarray:
    return np.kron(np.kron(I4, proj(vec)), I2)


def born(op: np.ndarray, psi: np.ndarray) -> float:
    return float((psi.conj() @ op @ psi).real)


# --- reference implementations ---------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def acts_trivially(mat: np.ndarray, n: int, axis: int, tol: float) -> bool:
    """Reference identity-on-slot test: both commutators [P, M] for P in
    {X, Z} on qubit ``axis``, formed with explicit tensor contractions."""
    for p in (PAULI_X, PAULI_Z):
        t = mat.reshape((2,) * (2 * n))
        pm = np.moveaxis(np.tensordot(p, t, axes=([1], [axis])), 0, axis)
        mp = np.moveaxis(np.tensordot(p, t, axes=([0], [n + axis])), 0, n + axis)
        if np.abs(pm - mp).max() > tol:
            return False
    return True


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>; both states must be on the same ordered slots."""
    if a.slots != b.slots:
        raise DimensionMismatchError(f"slot mismatch: {a.slots} vs {b.slots}")
    return complex(np.vdot(a.amps, b.amps))


def reduced_projector_fidelity(
    s: StateVector, slot: str, target: StateVector, tol: float | None = None
) -> float:
    """<t|rho_slot|t> for a single-qubit target state t."""
    if target.n_qubits != 1:
        raise DimensionMismatchError("target must be a single-qubit state")
    if not target.normalized:
        raise NormalizationError("fidelity target must be normalized")
    rho = reduced_density(s, slot)
    value = complex(np.vdot(target.amps, rho @ target.amps))
    if abs(value.imag) > tolerance(tol):
        raise OperatorInvariantError(f"fidelity has imaginary residue {value.imag!r}")
    return min(max(value.real, 0.0), 1.0)


def phase1_simplex(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Exact feasibility of ``A x = b, x >= 0`` with ``b >= 0``.

    Returns ``(x, None)`` when feasible.  Otherwise returns ``(None, y)``
    with the Farkas dual satisfying ``y . A_j <= 0`` for every column and
    ``y . b > 0``.  Bland's rule guarantees termination.

    Reference for ``hardylab.lhv._phase1_simplex``: the same rules on a
    tableau of Fractions, one division per entry per pivot.
    """
    m = len(rhs)
    n = len(columns)
    # rows of [A | I | b], starting basis = artificial columns
    tableau = [
        [columns[j][i] for j in range(n)]
        + [Fraction(int(i == k)) for k in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    width = n + m + 1

    # reduced-cost row for objective: minimize the sum of artificials
    cost = [Fraction(0)] * width
    for j in range(width):
        total = sum((tableau[i][j] for i in range(m)), Fraction(0))
        cj = Fraction(1) if n <= j < n + m else Fraction(0)
        cost[j] = cj - total

    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pivot_row]
                ):
                    best, pivot_row = ratio, i
        if pivot_row is None:
            # Σ artificials is bounded below by 0; an unbounded pivot
            # column cannot occur for this objective.
            raise HardyLabError("phase-1 simplex lost boundedness")
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [v / pivot for v in tableau[pivot_row]]
        for i in range(m):
            if i != pivot_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], tableau[pivot_row])]
        if cost[entering] != 0:
            f = cost[entering]
            cost = [v - f * p for v, p in zip(cost, tableau[pivot_row])]
        basis[pivot_row] = entering

    objective = -cost[-1]
    if objective == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return x, None
    # duality: y_i = 1 - reduced cost of artificial column i; then
    # y.A_j = -cost_j <= 0 for structural columns and y.b = objective > 0.
    y = [Fraction(1) - cost[n + i] for i in range(m)]
    return None, y


def validate_certificate_reference(table, cert, tol: float | None = None) -> bool:
    """Re-check a certificate against a table, exactly.

    Feasible: every constrained cell must be reproduced by the model with
    exact rational equality.  Infeasible: the functional must be strictly
    negative on the table while nonnegative on all 16 deterministic
    assignments (an all-zero functional therefore never validates).

    Reference for ``hardylab.lhv.validate_certificate``: the same checks as
    sums of Fractions, cell by cell and column by column.
    """
    try:
        exact = rationalize_table(table, tol)
    except HardyLabError:
        return False

    if cert.verdict == "feasible":
        model = cert.model
        if model is None:
            return False
        try:
            LhvModel(model.weights)  # re-run the invariants
        except HardyLabError:
            return False
        return all(
            model.cell_probability(cell) == exact[cell[0]][cell[1]][cell[2]]
            for cell in CELLS
        )

    witness = cert.witness
    if witness is None or not witness.functional:
        return False
    if not witness.functional.keys() <= _INCIDENCE.keys():
        return False
    value = sum(
        (c * exact[key][a][b] for (key, a, b), c in witness.functional.items()),
        Fraction(0),
    )
    if value >= 0:
        return False
    coefficients = list(witness.functional.values())
    columns = zip(*(_INCIDENCE[cell] for cell in witness.functional))
    return all(
        sum((c for c, hit in zip(coefficients, column) if hit), Fraction(0)) >= 0
        for column in columns
    )


def shot_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for shots [start, start+count) under the substream rule."""
    if count == 0:
        return np.zeros(0)
    first_block, offset = divmod(start, 4)
    n_blocks = -(-(offset + count) // 4)
    bitgen = np.random.Philox(key=seed, counter=[first_block, 0, 0, 0])
    words = np.random.Generator(bitgen).integers(
        0, 2**64, size=4 * n_blocks, dtype=np.uint64, endpoint=False
    )
    return (words[offset : offset + count] >> np.uint64(11)) * 2.0**-53


def sample_reference(state, cfg, first_shot: int = 0, tol: float | None = None):
    """Reference sampler: one float uniform per shot, placed by searchsorted.

    It holds every shot's word, uniform and cell index at once.
    """
    probs = exact_context_probabilities(state, cfg, tol)
    flat = np.array([probs[a][b] for a, b in CELL_ORDER])
    flat = flat / flat.sum()
    boundaries = np.cumsum(flat)
    boundaries[-1] = 1.0  # guard against float shortfall at the top end

    u = shot_uniforms(cfg.seed, first_shot, cfg.shots)
    outcomes = np.searchsorted(boundaries, u, side="right")
    counts = np.bincount(outcomes, minlength=4).reshape(2, 2)
    return CountTable(counts, cfg.shots)
