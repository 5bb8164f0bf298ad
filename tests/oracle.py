"""Independent brute-force oracle used by the tests.

Everything here is built from raw numpy kron products in the fixed
(A, 1, 2, B) order, without touching the package's slot-embedding or
expansion machinery, so it can serve as a second route for every derived
expectation value.
"""

import numpy as np

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
