"""Independent expectations for the benchmark's output checks.

Everything here is built from raw numpy Kronecker products in the fixed
(A, 1, 2, B) slot order and from plain fractions, without calling the
hardylab package, so the checks do not share code with what they check.
The seeded LHV table pool is generated here too, so that the program only
ever receives generated inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
XPLUS = (PLUS + MINUS) / np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

BELL_LABELS = ("psi-", "psi+", "phi-", "phi+")
BELL_VECS = {
    "psi-": (np.kron(PLUS, MINUS) - np.kron(MINUS, PLUS)) / np.sqrt(2.0),
    "psi+": (np.kron(PLUS, MINUS) + np.kron(MINUS, PLUS)) / np.sqrt(2.0),
    "phi-": (np.kron(PLUS, PLUS) - np.kron(MINUS, MINUS)) / np.sqrt(2.0),
    "phi+": (np.kron(PLUS, PLUS) + np.kron(MINUS, MINUS)) / np.sqrt(2.0),
}
CONTEXT_KEYS = ("d1d2", "d1u2", "u1d2", "u1u2")
INTERPS = ("fixed", "collapsed")

PSI = np.kron(np.kron(PLUS, BELL_VECS["psi-"]), XPLUS)


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _born(op: np.ndarray) -> float:
    return float((PSI.conj() @ op @ PSI).real)


def d1(bell: str) -> np.ndarray:
    return np.kron(_proj(BELL_VECS[bell]), I4)


def d2(bell: str) -> np.ndarray:
    return np.kron(I4, _proj(BELL_VECS[bell]))


def _slot_state(post: np.ndarray, axis: int) -> np.ndarray:
    """Reduced density matrix of one qubit of a normalized 4-qubit vector."""
    t = np.moveaxis(post.reshape((2,) * 4), axis, 0).reshape(2, -1)
    return t @ t.conj().T


def u1(interp: str, d2_bell: str) -> np.ndarray:
    if interp == "fixed":
        rho = _proj(PLUS)
    else:  # the pure state qubit 1 is left in once (2, B) reads d2_bell
        post = d2(d2_bell) @ PSI
        rho = _slot_state(post / np.linalg.norm(post), 1)
    return np.kron(np.kron(I2, rho), I4)


def u2(interp: str, d1_bell: str) -> np.ndarray:
    if interp == "fixed":
        rho = _proj(PLUS)
    else:
        post = d1(d1_bell) @ PSI
        rho = _slot_state(post / np.linalg.norm(post), 2)
    return np.kron(np.kron(I4, rho), I2)


def context_ops(i: str, j: str, interp: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    a, b, c, d = d1(i), d2(j), u1(interp, j), u2(interp, i)
    return {"d1d2": (a, b), "d1u2": (a, d), "u1d2": (c, b), "u1u2": (c, d)}


def joint_table(first: np.ndarray, second: np.ndarray) -> list[list[float]]:
    """[a][b] outcome distribution of two commuting projectors."""
    eye = np.eye(16)
    return [
        [_born((first if a else eye - first) @ (second if b else eye - second)) for b in (0, 1)]
        for a in (0, 1)
    ]


def quantum_table(i: str, j: str, interp: str) -> dict[str, list[list[float]]]:
    return {key: joint_table(*ops) for key, ops in context_ops(i, j, interp).items()}


def audit_values(i: str, j: str, interp: str) -> dict[str, float]:
    """The four audited quantities for one pair, as HardyClaimSet names them."""
    ops = context_ops(i, j, interp)
    (a, b), (_, d), (c, _) = ops["d1d2"], ops["d1u2"], ops["u1d2"]
    return {
        "p_joint": _born(a @ b),
        "c_d1u2": _born(a @ d) / _born(a),
        "c_d2u1": _born(b @ c) / _born(b),
        "p_u1u2": _born(c @ d),
    }


AUDIT_TARGETS = {"p_joint": 1 / 16, "c_d1u2": 1.0, "c_d2u1": 1.0, "p_u1u2": 0.0}


#: The 16 (D1, D2) pairs in the package's reporting order.
PAIRS = tuple((i, j) for i in BELL_LABELS for j in BELL_LABELS)


def audit_sweep(interp: str) -> list[dict[str, float]]:
    """The audited quantities of all 16 pairs, in ``PAIRS`` order."""
    return [audit_values(i, j, interp) for i, j in PAIRS]


# --- LHV tables ------------------------------------------------------------

#: Deterministic assignments (d1, d2, u1, u2) and the components each
#: context reads.
ASSIGNMENTS = tuple(product((0, 1), repeat=4))
_CONTEXT_SLOTS = {"d1d2": (0, 1), "d1u2": (0, 3), "u1d2": (2, 1), "u1u2": (2, 3)}
CELLS = tuple((key, a, b) for key in CONTEXT_KEYS for a in (0, 1) for b in (0, 1))


def _composition(rng: random.Random, parts: int, den: int) -> list[Fraction]:
    """``parts`` nonnegative multiples of 1/den summing to 1."""
    cuts = sorted(rng.randint(0, den) for _ in range(parts - 1))
    edges = [0, *cuts, den]
    return [Fraction(edges[k + 1] - edges[k], den) for k in range(parts)]


def _local_mixture(rng: random.Random) -> dict:
    support = rng.sample(ASSIGNMENTS, rng.randint(1, 6))
    weights = _composition(rng, len(support), rng.randint(2, 12))
    table = {key: [[Fraction(0)] * 2 for _ in range(2)] for key in CONTEXT_KEYS}
    for assignment, w in zip(support, weights):
        for key, (x, y) in _CONTEXT_SLOTS.items():
            table[key][assignment[x]][assignment[y]] += w
    return table


def _hardy_table(p: Fraction, q: Fraction, h: Fraction) -> dict:
    """A no-signalling table with the Hardy zeros and P(D1=D2=1) = p.

    P(D1=1) = P(D2=1) = q and P(U1=1) = P(U2=1) = h.  With
    0 < p <= q <= h <= 1/2 every cell is nonnegative.
    """
    zero = Fraction(0)
    return {
        "d1d2": [[1 - 2 * q + p, q - p], [q - p, p]],
        "d1u2": [[1 - h, h - q], [zero, q]],
        "u1d2": [[1 - h, zero], [h - q, q]],
        "u1u2": [[1 - 2 * h, h], [h, zero]],
    }


def _hardy_pattern(rng: random.Random) -> dict:
    den = rng.choice((8, 12, 16, 24, 32))
    kp = rng.randint(1, den // 4)
    kq = rng.randint(kp, den // 2)
    kh = rng.randint(kq, den // 2)
    return _hardy_table(Fraction(kp, den), Fraction(kq, den), Fraction(kh, den))


def _generic(rng: random.Random) -> dict:
    """Each context an independent distribution: usually signalling."""
    den = rng.randint(2, 10)
    table = {}
    for key in CONTEXT_KEYS:
        cells = _composition(rng, 4, den)
        table[key] = [cells[:2], cells[2:]]
    return table


def paper_claims_table() -> dict:
    """The advertised conditions, completed from the quantum marginals."""
    return _hardy_table(Fraction(1, 16), Fraction(1, 4), Fraction(1, 2))


def table_pool(seed: int, per_class: int) -> list[tuple[str, dict]]:
    """The seeded pool of (class, table) pairs the lhv-tables batches draw from.

    The 32 quantum float tables and the paper-claims table are always in
    it; ``per_class`` seeded tables are added for each generated class.
    """
    rng = random.Random(seed)
    pool = [("quantum", quantum_table(i, j, interp)) for interp in INTERPS for i, j in PAIRS]
    pool.append(("paper-claims", paper_claims_table()))
    for name, make in (
        ("local-mixture", _local_mixture),
        ("hardy-pattern", _hardy_pattern),
        ("generic", _generic),
    ):
        pool.extend((name, make(rng)) for _ in range(per_class))
    return pool


def linprog_verdict(table: dict) -> str:
    """Feasibility of the table over the 16 assignments, by scipy's LP."""
    from scipy.optimize import linprog

    columns = np.array(
        [
            [float(a[_CONTEXT_SLOTS[key][0]] == x and a[_CONTEXT_SLOTS[key][1]] == y)
             for (key, x, y) in CELLS]
            for a in ASSIGNMENTS
        ]
    ).T
    rhs = np.array([float(table[key][x][y]) for (key, x, y) in CELLS])
    res = linprog(np.zeros(len(ASSIGNMENTS)), A_eq=columns, b_eq=rhs,
                  bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"linprog ended with status {res.status}: {res.message}")
    return "feasible" if res.status == 0 else "infeasible"
