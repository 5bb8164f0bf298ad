"""Independent brute-force oracle used by the tests.

The first section builds the quantum side from raw numpy Kronecker
products in the fixed (A, 1, 2, B) order, without calling the package:
the D and U matrices of both readings, the joint tables and the four
audited values of a pair, the Bell expansion as partial inner products
(<b| x I) psi, and the projector onto a ket on any support.  It is the
one independent route every exact quantum value of the package is
cross-checked against.  The bridges below it read an exact state into
it on any slot order, an exact operator as its matrix, and sum an exact
Bell expansion back up.  The reference section holds slower or
test-only implementations that property tests compare the package
against.
"""

import math
import sys
from fractions import Fraction
from functools import cache
from itertools import accumulate, product
from typing import Sequence

import numpy as np

from hardylab.core import TOLERANCE, HardyLabError
from hardylab import lhv
from hardylab.lhv import _MARGINAL_DIFFERENCES, CELLS, LhvModel, _value, rationalize_table
from hardylab.sampler import CELL_ORDER, CountTable, exact_context_probabilities

SLOTS = ("A", "1", "2", "B")
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


def reduced(vec: np.ndarray, slot: str) -> np.ndarray:
    """The 2x2 reduced density matrix of one slot of a nonzero vector on
    (A, 1, 2, B), the vector normalized first."""
    t = np.moveaxis(vec.reshape((2,) * 4), SLOTS.index(slot), 0).reshape(2, -1)
    return t @ t.conj().T / np.vdot(vec, vec).real


def u_matrices(i: str, j: str, interp: str) -> tuple[np.ndarray, np.ndarray]:
    """U1 and U2 of the pair (D1=i, D2=j) under the reading ``interp``:
    |+><+| on qubits 1 and 2 (``fixed``), or the state qubit 1 is left in
    once (2, B) reads j and qubit 2 once (A, 1) reads i (``collapsed``).
    That state is pure, so its reduced density matrix is its projector."""
    if interp == "fixed":
        return u1_matrix(), u2_matrix()
    if interp != "collapsed":
        raise ValueError(f"no reading {interp!r}")
    psi = total_state_vec()
    rho1, rho2 = reduced(d2_matrix(j) @ psi, "1"), reduced(d1_matrix(i) @ psi, "2")
    return np.kron(np.kron(I2, rho1), I4), np.kron(np.kron(I4, rho2), I2)


def context_matrices(i: str, j: str, interp: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The observable pair of each context of the pair (D1=i, D2=j)."""
    d1, d2 = d1_matrix(i), d2_matrix(j)
    u1, u2 = u_matrices(i, j, interp)
    return {"d1d2": (d1, d2), "d1u2": (d1, u2), "u1d2": (u1, d2), "u1u2": (u1, u2)}


def joint_table(first: np.ndarray, second: np.ndarray) -> list[list[float]]:
    """[a][b] outcome distribution of two commuting projectors on the total
    state: the Born weight of (P or 1 - P) times (Q or 1 - Q)."""
    eye, psi = np.eye(16), total_state_vec()
    return [
        [born((first if a else eye - first) @ (second if b else eye - second), psi)
         for b in (0, 1)]
        for a in (0, 1)
    ]


def quantum_tables(i: str, j: str, interp: str) -> dict[str, list[list[float]]]:
    return {key: joint_table(*ops) for key, ops in context_matrices(i, j, interp).items()}


def audit_values(i: str, j: str, interp: str) -> dict[str, float]:
    """The four audited quantities of one pair, as ``HardyClaimSet`` names them."""
    (d1, d2), (u1, u2) = (context_matrices(i, j, interp)[key] for key in ("d1d2", "u1u2"))
    psi = total_state_vec()
    return {
        "p_joint": born(d1 @ d2, psi),
        "c_d1u2": born(d1 @ u2, psi) / born(d1, psi),
        "c_d2u1": born(u1 @ d2, psi) / born(d2, psi),
        "p_u1u2": born(u1 @ u2, psi),
    }


AUDIT_TARGETS = {"p_joint": 1 / 16, "c_d1u2": 1.0, "c_d2u1": 1.0, "p_u1u2": 0.0}


def permutation(current: tuple[str, ...], target: tuple[str, ...]) -> np.ndarray:
    """The 0/1 integer matrix taking amplitudes listed in slot order
    ``current`` to the same amplitudes listed in slot order ``target``."""
    n = len(current)
    axes = [current.index(label) for label in target]
    eye = np.eye(2**n, dtype=int).reshape((2,) * n + (2**n,))
    return eye.transpose(axes + [n]).reshape(2**n, 2**n)


def bell_overlaps(psi: np.ndarray, pair: tuple[str, str]) -> dict[str, np.ndarray]:
    """(<b| x I) psi for each Bell state b on ``pair``, ``psi`` on
    (A, 1, 2, B): the unnormalized branch vectors, on the other two slots
    in (A, 1, 2, B) order."""
    rest = tuple(label for label in SLOTS if label not in pair)
    moved = permutation(SLOTS, tuple(pair) + rest) @ psi
    return {b: np.kron(v.conj(), I4) @ moved for b, v in BELL_VECS.items()}


def projector(ket, support: tuple[str, ...]) -> np.ndarray:
    """|k><k| for the direction of the amplitudes ``ket`` on ``support``,
    identity on the other slots, as a 16x16 matrix on (A, 1, 2, B)."""
    rest = tuple(label for label in SLOTS if label not in support)
    vec = np.asarray(ket, dtype=float) / np.linalg.norm(ket)
    move = permutation(tuple(support) + rest, SLOTS)
    return move @ np.kron(proj(vec), np.eye(2 ** len(rest))) @ move.T


# --- bridges from the exact layer ---------------------------------------------


def unit(s) -> np.ndarray:
    """An exact ``hardylab.core.StateVector`` as a float unit ket, its slots
    put in (A, 1, 2, B) order."""
    order = tuple(label for label in SLOTS if label in s.slots)
    return permutation(s.slots, order) @ np.array(s.amps) / math.sqrt(s.norm2)


def exact_ket(pattern: str, slots: tuple[str, ...]):
    """Exact computational basis state from a pattern like ``"+-"``."""
    from hardylab.core import StateVector as ExactState

    index = int(pattern.replace("+", "0").replace("-", "1"), 2)
    return ExactState(tuple(int(i == index) for i in range(2 ** len(slots))), tuple(slots))


def dense(op) -> np.ndarray:
    """The matrix of an exact operator as a numpy array."""
    return np.asarray(op.matrix)


def bell_sum(s, pair: tuple[str, str]) -> np.ndarray:
    """The integer vector sum over the four Bell kets b on ``pair`` of
    b x partial_overlap(b, s), listed in the slot order of ``s``.  The
    Bell kets have norm2 2, so the sum is 2 * s.amps when they are complete."""
    from hardylab.core import partial_overlap
    from hardylab.protocol import BELL_ORDER, bell_state

    rest = tuple(label for label in s.slots if label not in pair)
    bells = [bell_state(index, pair) for index in BELL_ORDER]
    total = sum(np.kron(b.amps, partial_overlap(b, s)) for b in bells)
    return permutation(tuple(pair) + rest, s.slots) @ total


# --- reference implementations ---------------------------------------------

#: The 16 deterministic assignments (d1, d2, u1, u2), and for each context
#: the indices in an assignment of the two observables it measures.  The
#: references keep their own copy of the polytope rather than the package's.
ASSIGNMENTS = tuple(product((0, 1), repeat=4))
CONTEXT_SLOTS = {"d1d2": (0, 1), "d1u2": (0, 3), "u1d2": (2, 1), "u1u2": (2, 3)}


def hits(assignment, cell) -> bool:
    """Whether a deterministic assignment gives a cell's two outcomes."""
    key, a, b = cell
    i, j = CONTEXT_SLOTS[key]
    return assignment[i] == a and assignment[j] == b


def cells(exact) -> dict:
    """An ``ExactTable``'s numerators by cell: its ``n`` lists them in CELLS order."""
    return dict(zip(CELLS, exact.n))


def weights(model: LhvModel) -> dict:
    """An ``LhvModel``'s weights by assignment: its ``weights`` lists them
    in the package's ASSIGNMENTS order."""
    return dict(zip(lhv.ASSIGNMENTS, model.weights))


def cell_probability(model: LhvModel, cell) -> Fraction:
    """The probability a mixture of deterministic assignments gives one cell:
    the weights of the assignments that hit it, summed, over ``model.den``."""
    by_assignment = weights(model)
    return Fraction(sum(by_assignment[a] for a in ASSIGNMENTS if hits(a, cell)), model.den)


#: Hardy's functional, -P(D1=1,D2=1) + P(D1=1,U2=0) + P(U1=0,D2=1) + P(U1=1,U2=1).
HARDY_FUNCTIONAL = {("d1d2", 1, 1): -1, ("d1u2", 1, 0): 1, ("u1d2", 0, 1): 1, ("u1u2", 1, 1): 1}
OBSERVABLES = ("d1", "d2", "u1", "u2")


def functional_value(functional, cells) -> Fraction:
    """A functional's value on a table's cells, each a Fraction."""
    return sum((c * cells[cell] for cell, c in functional.items()), Fraction(0))


@cache
def marginal_functionals(observable: str) -> list[dict]:
    """+-(P(X=1) in one context - P(X=1) in the other) for the observable X.

    X's cells in a context that measures it are the cells that only
    assignments with X = 1 hit.
    """
    k = OBSERVABLES.index(observable)
    sides = [
        [c for c in CELLS if c[0] == key and all(a[k] for a in ASSIGNMENTS if hits(a, c))]
        for key, slots in CONTEXT_SLOTS.items()
        if k in slots
    ]
    return [{**dict.fromkeys(sides[0], s), **dict.fromkeys(sides[1], -s)} for s in (1, -1)]


def signalling_witness_reference(n) -> dict | None:
    """The first of the package's 8 marginal differences, in its order, whose
    value on the ``ExactTable`` cells ``n`` is < 0, or None: the rule
    ``hardylab.lhv._signalling_witness`` must follow when it reads each
    observable's gap once instead."""
    return next((f for f in _MARGINAL_DIFFERENCES if _value(f, n) < 0), None)


@cache
def chsh_facets() -> list[dict]:
    """Every functional that is -1 on one cell, +1 on one cell of each other
    context and >= 0 on every assignment, found by brute force over the
    1024 such functionals: Hardy's functional under each relabelling."""
    facets = []
    for picks in product(*([cell for cell in CELLS if cell[0] == key] for key in CONTEXT_SLOTS)):
        for negative in picks:
            f = {cell: -1 if cell == negative else 1 for cell in picks}
            if all(sum(c for cell, c in f.items() if hits(a, cell)) >= 0 for a in ASSIGNMENTS):
                facets.append(f)
    return facets


def phase1_simplex(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Exact feasibility of ``A x = b, x >= 0`` with ``b >= 0``.

    Returns ``(x, None)`` when feasible.  Otherwise returns ``(None, y)``
    with the Farkas dual satisfying ``y . A_j <= 0`` for every column and
    ``y . b > 0``.  Bland's rule guarantees termination.

    The independent LP verdict reference for ``hardylab.lhv.feasibility``,
    on a tableau of Fractions, one division per entry per pivot.  It has
    no twin in the package, which builds its models by Fine's chord
    gluing instead.
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


def _ints(values) -> bool:
    """Whether every value is an int, not a bool."""
    return all(type(v) is int for v in values)


def validate_certificate_reference(table, cert, tol: float = TOLERANCE) -> bool:
    """Re-check a certificate against a table, exactly.

    Every weight and coefficient must be an int, not a bool; one that is
    not makes the certificate invalid.  Each weight is read as
    ``Fraction(w, model.den)``.  Feasible: the model must pass its
    invariants (16 weights >= 0 summing to 1) and reproduce every
    constrained cell with exact rational equality.  Infeasible: the
    functional must be strictly negative on the table while nonnegative on
    all 16 deterministic assignments (an all-zero functional therefore
    never validates), and one its kind names on the table: a ``no-signalling``
    functional is one of some observable's two marginal differences; a
    ``chsh-facet`` one is one of :func:`chsh_facets` on a no-signalling
    table; a ``deduction-chain`` one is Hardy's, on a table showing the
    Hardy pattern.

    Reference for ``hardylab.lhv.validate_certificate``: the same checks,
    cell by cell and assignment by assignment, with the table's cells as
    Fractions, the int coefficients summed per assignment, and the named
    functionals built here from :data:`CONTEXT_SLOTS`.
    """
    try:
        exact = rationalize_table(table, tol)
    except HardyLabError:
        return False
    values = {cell: Fraction(n, exact.den) for cell, n in cells(exact).items()}

    if cert.verdict == "feasible":
        model = cert.model
        if not _ints([*model.weights, model.den]) or model.den <= 0:
            return False
        weights = [Fraction(w, model.den) for w in model.weights]
        if len(weights) != 16 or min(weights) < 0 or sum(weights) != 1:
            return False
        return all(cell_probability(model, cell) == values[cell] for cell in CELLS)

    witness = cert.witness
    if witness is None or not witness.functional:
        return False
    if not witness.functional.keys() <= set(CELLS):
        return False
    if not _ints(witness.functional.values()):
        return False
    functional = dict(witness.functional)
    if functional_value(functional, values) >= 0:
        return False
    if not all(
        sum(c for cell, c in functional.items() if hits(a, cell)) >= 0
        for a in ASSIGNMENTS
    ):
        return False
    if witness.kind == "no-signalling":
        return any(functional in marginal_functionals(x) for x in OBSERVABLES)
    if witness.kind == "chsh-facet":
        no_signalling = all(
            functional_value(marginal_functionals(x)[0], values) == 0 for x in OBSERVABLES
        )
        return no_signalling and functional in chsh_facets()
    if witness.kind == "deduction-chain":
        p = values["d1d2", 1, 1]
        pattern = p > 0 and values["d1u2", 1, 0] == values["u1d2", 0, 1] == values["u1u2", 1, 1] == 0
        return pattern and functional == HARDY_FUNCTIONAL
    return False


def _philox_words(seed: int, start: int, count: int) -> np.ndarray:
    """Philox words [start, start+count): word j is lane j % 4 of block j // 4."""
    first_block, offset = divmod(start, 4)
    n_blocks = -(-(offset + count) // 4)
    bitgen = np.random.Philox(key=seed, counter=[first_block, 0, 0, 0])
    words = np.random.Generator(bitgen).integers(
        0, 2**64, size=4 * n_blocks, dtype=np.uint64, endpoint=False
    )
    return words[offset : offset + count]


def shot_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for shots [start, start+count) at one whole word per shot."""
    return (_philox_words(seed, start, count) >> np.uint64(11)) * 2.0**-53


def shot_nibbles(seed: int, start: int, count: int) -> np.ndarray:
    """Nibbles for shots [start, start+count): nibble k % 16 of word k // 16.

    Nibble ``j`` of word ``w`` is ``(w >> 4*j) & 15``, low nibble first,
    computed by shifts rather than by viewing memory.
    """
    first_word, offset = divmod(start, 16)
    words = _philox_words(seed, first_word, -(-(offset + count) // 16))
    shifts = np.arange(0, 64, 4, dtype=np.uint64)
    lanes = (words[:, None] >> shifts) & np.uint64(15)
    return lanes.ravel()[offset : offset + count]


def _place(state, cfg, u):
    """Counts of uniforms ``u`` placed among the running sums by searchsorted."""
    grid, den = exact_context_probabilities(state, cfg)
    flat = np.array([grid[a][b] / den for a, b in CELL_ORDER])
    flat = flat / flat.sum()
    boundaries = np.cumsum(flat)
    boundaries[-1] = 1.0  # guard against float shortfall at the top end
    outcomes = np.searchsorted(boundaries, u, side="right")
    counts = np.bincount(outcomes, minlength=4).reshape(2, 2)
    return CountTable(counts, cfg.shots)


def lane_edges_reference(flat) -> tuple[int, list[tuple[int, int]]]:
    """The sampler's lane width and ``(index, cut)`` edges by the Fraction
    rule: the running sums ``b`` of the Fraction cells ``flat`` up to the
    last nonzero one, cut at ``16 * b`` when every ``b * 16 % 1 == 0`` and
    at ``ceil(b * 2**53) << 11`` otherwise, no cut past the largest lane."""
    last = max(i for i, p in enumerate(flat) if p)
    sums = list(accumulate(flat[:last]))
    if all(b * 16 % 1 == 0 for b in sums):
        return 4, [(i, int(b * 16)) for i, b in enumerate(sums) if b < 1]
    cuts = [math.ceil(b * 2**53) for b in sums]
    return 64, [(i, t << 11) for i, t in enumerate(cuts) if t < 2**53]


def compositions(den: int) -> list[tuple[int, int, int, int]]:
    """Every four-cell distribution (n00, n01, n10, n11) of ints >= 0 summing to ``den``."""
    return [(a, b, c, den - a - b - c)
            for a in range(den + 1) for b in range(den + 1 - a) for c in range(den + 1 - a - b)]


def sample_reference(state, cfg, first_shot: int = 0):
    """Reference sampler: shot k's uniform is nibble k % 16 of word k // 16
    over 16, placed by searchsorted.  Exact for edges on the 1/16 grid.

    It holds every shot's nibble, uniform and cell index at once.
    """
    return _place(state, cfg, shot_nibbles(cfg.seed, first_shot, cfg.shots) / 16.0)


def sample_word_reference(state, cfg, first_shot: int = 0):
    """Reference sampler at one float uniform per shot from a whole word,
    the rule for distributions with an edge off the 1/16 grid."""
    return _place(state, cfg, shot_uniforms(cfg.seed, first_shot, cfg.shots))


# --- instrumentation --------------------------------------------------------


def fractions_built(run) -> int:
    """How many times ``run()`` calls ``Fraction.__new__``, seen by a
    profile hook: a Fraction's arithmetic builds its result through it too."""
    built = 0
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is new

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return built
