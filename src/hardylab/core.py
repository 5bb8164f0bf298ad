"""Exact dense complex linear algebra for up to four labelled qubits.

States and operators carry explicit slot labels (drawn from A, 1, 2, B),
so tensor factors can never be silently reordered.  The full space is only
16-dimensional; everything is a plain dense numpy array, and every public
value is immutable after construction.

Basis convention: each qubit uses the (+, -) basis with "+" mapped to
index 0, and multi-qubit amplitudes are stored row-major with the first
slot label as the most significant bit.  The canonical full slot order is
(A, 1, 2, B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CANONICAL_SLOTS = ("A", "1", "2", "B")

# Single comparison knob for the whole package.  Every quantity handled
# here is a dyadic rational times a power of sqrt(2), so 1e-12 leaves
# orders of magnitude of headroom over float64 noise.
TOLERANCE = 1e-12


def tolerance(tol: float | None = None) -> float:
    """Resolve an explicit tolerance argument against the global knob."""
    return TOLERANCE if tol is None else float(tol)


def set_tolerance(tol: float) -> None:
    """Set the global comparison tolerance (one knob for the package)."""
    global TOLERANCE
    TOLERANCE = float(tol)


class HardyLabError(Exception):
    """Base class for every error raised by this package."""


class SlotCollisionError(HardyLabError):
    """Two tensor factors claimed the same slot label."""


class DimensionMismatchError(HardyLabError):
    """Operands live on different slot sets or have inconsistent shapes."""


class NormalizationError(HardyLabError):
    """A state that must be normalized is not (or vice versa)."""


class NonProjectorError(HardyLabError):
    """Projector semantics were requested for a non-projector operator."""


class OperatorInvariantError(HardyLabError):
    """An operator violates Hermiticity, idempotence, or its acts_on claim."""


class ZeroProbabilityError(HardyLabError):
    """Conditioning or collapsing on an event of probability zero."""


class NonCommutingError(HardyLabError):
    """A jointly measured pair of observables does not commute."""


class EmptyBranchError(HardyLabError):
    """A measurement branch with zero weight was requested."""


def _validate_slots(slots: tuple[str, ...]) -> None:
    if not 1 <= len(slots) <= 4:
        raise DimensionMismatchError(f"slot count must be 1..4, got {len(slots)}")
    if len(set(slots)) != len(slots):
        raise SlotCollisionError(f"duplicate slot labels in {slots}")
    unknown = set(slots) - set(CANONICAL_SLOTS)
    if unknown:
        raise DimensionMismatchError(f"unknown slot labels {sorted(unknown)}")


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(shape)
    if not np.all(np.isfinite(arr.view(float))):
        raise HardyLabError("non-finite amplitude")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """A pure state over labelled qubits.

    ``amps`` has length ``2 ** len(slots)``.  The public constructor
    enforces unit norm; unnormalized intermediates (projection residues)
    must be created through :meth:`raw` and are flagged ``normalized=False``.
    """

    amps: np.ndarray
    slots: tuple[str, ...]
    normalized: bool = True

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        _validate_slots(slots)
        amps = _frozen_array(self.amps, (2 ** len(slots),))
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "slots", slots)
        if self.normalized:
            nsq = float(np.vdot(amps, amps).real)
            if abs(nsq - 1.0) > tolerance():
                raise NormalizationError(
                    f"state on {slots} has squared norm {nsq!r}, expected 1"
                )

    @classmethod
    def raw(cls, amps, slots: tuple[str, ...]) -> "StateVector":
        """Construct without the unit-norm invariant (explicitly marked)."""
        return cls(amps, slots, normalized=False)

    @property
    def n_qubits(self) -> int:
        return len(self.slots)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector({ket_string(self)!r}, slots={self.slots})"


_BASIS_CHARS = {"+": 0, "-": 1}


def ket(pattern: str, slots: tuple[str, ...]) -> StateVector:
    """Computational basis state from a pattern like ``"+-"``."""
    if len(pattern) != len(slots):
        raise DimensionMismatchError(
            f"pattern {pattern!r} does not cover slots {slots}"
        )
    index = 0
    for ch in pattern:
        if ch not in _BASIS_CHARS:
            raise HardyLabError(f"unknown basis character {ch!r}")
        index = 2 * index + _BASIS_CHARS[ch]
    amps = np.zeros(2 ** len(slots), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, slots)


def ket_string(s: StateVector, eps: float = 1e-9) -> str:
    """Human-readable ket expansion, e.g. ``"0.5|++-> + -0.5|+-+>"``."""
    n = s.n_qubits
    terms = []
    for i, a in enumerate(s.amps):
        if abs(a) <= eps:
            continue
        label = "".join("+" if ((i >> (n - 1 - k)) & 1) == 0 else "-" for k in range(n))
        coef = f"{a.real:g}" if abs(a.imag) <= eps else f"({a.real:g}{a.imag:+g}j)"
        terms.append(f"{coef}|{label}>")
    return " + ".join(terms) if terms else "0"


def _axis_permutation(current: tuple[str, ...], target: tuple[str, ...]) -> list[int]:
    if set(current) != set(target):
        raise DimensionMismatchError(f"cannot reorder {current} into {target}")
    return [current.index(label) for label in target]


def _permute_vector(amps: np.ndarray, current, target) -> np.ndarray:
    perm = _axis_permutation(tuple(current), tuple(target))
    n = len(perm)
    return amps.reshape((2,) * n).transpose(perm).reshape(-1)


def _permute_matrix(mat: np.ndarray, current, target) -> np.ndarray:
    perm = _axis_permutation(tuple(current), tuple(target))
    n = len(perm)
    t = mat.reshape((2,) * (2 * n))
    t = t.transpose(perm + [p + n for p in perm])
    return t.reshape(2**n, 2**n)


def reorder(s: StateVector, new_slots: tuple[str, ...]) -> StateVector:
    """Same state with its tensor factors listed in a new slot order."""
    amps = _permute_vector(s.amps, s.slots, new_slots)
    return StateVector(amps, tuple(new_slots), normalized=s.normalized)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; slot labels concatenate and must be disjoint."""
    overlap = set(a.slots) & set(b.slots)
    if overlap:
        raise SlotCollisionError(f"slots {sorted(overlap)} present on both factors")
    if not (a.normalized and b.normalized):
        raise NormalizationError("tensor requires normalized factors")
    return StateVector(np.kron(a.amps, b.amps), a.slots + b.slots)


@dataclass(frozen=True, eq=False)
class ObservableOp:
    """A Hermitian operator on labelled qubits.

    ``slots`` is the full space the matrix is written on; ``acts_on`` is
    the subset it touches non-trivially (it must factor as identity on the
    rest, which is verified at construction).  ``is_projector`` adds the
    idempotence invariant.  Operators compare and hash by identity, so a
    built operator can key a cache.
    """

    matrix: np.ndarray
    slots: tuple[str, ...]
    acts_on: frozenset = field(default_factory=frozenset)
    name: str = ""
    is_projector: bool = False

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        _validate_slots(slots)
        dim = 2 ** len(slots)
        mat = _frozen_array(self.matrix, (dim, dim))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "slots", slots)
        acts_on = frozenset(self.acts_on) or frozenset(slots)
        if not acts_on <= set(slots):
            raise DimensionMismatchError(f"acts_on {sorted(acts_on)} outside {slots}")
        object.__setattr__(self, "acts_on", acts_on)

        tol = tolerance()
        if np.abs(mat - mat.conj().T).max() > tol:
            raise OperatorInvariantError(f"{self.name or 'operator'} is not Hermitian")
        if self.is_projector and np.abs(mat @ mat - mat).max() > tol:
            raise OperatorInvariantError(f"{self.name or 'operator'} is not idempotent")
        for k, label in enumerate(slots):
            if label not in acts_on and not _acts_trivially(mat, len(slots), k, tol):
                raise OperatorInvariantError(
                    f"{self.name or 'operator'} is not identity on slot {label}"
                )

    @property
    def n_qubits(self) -> int:
        return len(self.slots)

    def __matmul__(self, other: "ObservableOp") -> "ObservableOp":
        """Operator product; valid only when the result is again Hermitian
        (for projectors: when the factors commute)."""
        if self.slots != other.slots:
            raise DimensionMismatchError(f"slot mismatch: {self.slots} vs {other.slots}")
        return ObservableOp(
            self.matrix @ other.matrix,
            self.slots,
            acts_on=self.acts_on | other.acts_on,
            name=f"{self.name}*{other.name}",
            is_projector=self.is_projector and other.is_projector,
        )

    @classmethod
    def identity(cls, slots: tuple[str, ...]) -> "ObservableOp":
        dim = 2 ** len(slots)
        return cls(np.eye(dim), slots, acts_on=frozenset(), name="I", is_projector=True)

    @classmethod
    def projector_onto(
        cls,
        state: StateVector,
        within: tuple[str, ...] | None = None,
        name: str = "",
    ) -> "ObservableOp":
        """Rank-1 projector onto ``state``, identity on the other slots of
        ``within`` (default: just ``state.slots``)."""
        if not state.normalized:
            raise NormalizationError("projector target must be normalized")
        small = np.outer(state.amps, state.amps.conj())
        within = tuple(within) if within is not None else state.slots
        mat = _embed_matrix(small, state.slots, within)
        return cls(
            mat,
            within,
            acts_on=frozenset(state.slots),
            name=name or f"P[{ket_string(state)}]",
            is_projector=True,
        )

    @classmethod
    def single_qubit(
        cls,
        mat2,
        slot: str,
        within: tuple[str, ...] | None = None,
        name: str = "",
        is_projector: bool = False,
    ) -> "ObservableOp":
        """Embed a 2x2 Hermitian matrix acting on one slot."""
        within = tuple(within) if within is not None else (slot,)
        mat = _embed_matrix(np.asarray(mat2, dtype=complex), (slot,), within)
        return cls(mat, within, acts_on=frozenset({slot}), name=name,
                   is_projector=is_projector)


def _embed_matrix(small: np.ndarray, small_slots, full_slots) -> np.ndarray:
    """Extend ``small`` (on small_slots) by identity to full_slots order."""
    small_slots, full_slots = tuple(small_slots), tuple(full_slots)
    missing = set(small_slots) - set(full_slots)
    if missing:
        raise DimensionMismatchError(f"slots {sorted(missing)} not in {full_slots}")
    rest = tuple(l for l in full_slots if l not in small_slots)
    big = np.kron(small, np.eye(2 ** len(rest))) if rest else small
    return _permute_matrix(big, small_slots + rest, full_slots)


def _acts_trivially(mat: np.ndarray, n: int, axis: int, tol: float) -> bool:
    # An operator is identity on a qubit iff it commutes with the full
    # single-qubit algebra there; X and Z generate it.  Split the matrix
    # into 2x2 blocks T[a][b] over that qubit: [X, M] has entries
    # T01 - T10 and T00 - T11, and [Z, M] has entries 2*T01 and 2*T10.
    t = np.moveaxis(mat.reshape((2,) * (2 * n)), (axis, n + axis), (0, 1))
    x_comm = max(np.abs(t[0, 1] - t[1, 0]).max(), np.abs(t[0, 0] - t[1, 1]).max())
    z_comm = 2 * max(np.abs(t[0, 1]).max(), np.abs(t[1, 0]).max())
    return not (x_comm > tol or z_comm > tol)


def apply(op: ObservableOp, s: StateVector) -> StateVector:
    """Matrix-vector product.  The result is a projection residue and is
    returned unnormalized (``normalized=False``)."""
    if op.slots != s.slots:
        raise DimensionMismatchError(f"operator on {op.slots}, state on {s.slots}")
    return StateVector.raw(op.matrix @ s.amps, s.slots)


def expectation(op: ObservableOp, s: StateVector, tol: float | None = None) -> float:
    """<s|M|s> for Hermitian M; the imaginary residue must be negligible."""
    if op.slots != s.slots:
        raise DimensionMismatchError(f"operator on {op.slots}, state on {s.slots}")
    value = complex(np.vdot(s.amps, op.matrix @ s.amps))
    tol = tolerance(tol)
    if abs(value.imag) > tol:
        raise OperatorInvariantError(
            f"expectation has imaginary residue {value.imag!r} beyond {tol}"
        )
    return value.real


def born_probability(op: ObservableOp, s: StateVector, tol: float | None = None) -> float:
    """Probability of the projective outcome ``op`` on normalized ``s``.

    Returns a real value clamped into [0, 1]; an imaginary residue beyond
    the tolerance is an error (its size is reported in the message).
    """
    if not op.is_projector:
        raise NonProjectorError(f"{op.name or 'operator'} is not a projector")
    if not s.normalized:
        raise NormalizationError("born_probability requires a normalized state")
    p = expectation(op, s, tol)
    tol = tolerance(tol)
    if p < -tol or p > 1.0 + tol:
        raise HardyLabError(f"probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def collapse(
    op: ObservableOp, s: StateVector, tol: float | None = None
) -> tuple[float, StateVector]:
    """Project and renormalize: returns ``(probability, post_state)``.

    A zero-probability branch raises :class:`ZeroProbabilityError` instead
    of surfacing as a division blow-up, so callers can tell an impossible
    branch from numerical failure.
    """
    p = born_probability(op, s, tol)
    if p <= tolerance(tol):
        raise ZeroProbabilityError(
            f"collapse on {op.name or 'projector'} has probability {p!r}"
        )
    post = apply(op, s)
    return p, StateVector(post.amps / math.sqrt(p), s.slots)


def commutator_norm(a: ObservableOp, b: ObservableOp) -> float:
    """Max-entry magnitude of ``AB - BA``."""
    if a.slots != b.slots:
        raise DimensionMismatchError(f"slot mismatch: {a.slots} vs {b.slots}")
    return float(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max())


def reduced_density(s: StateVector, slot: str) -> np.ndarray:
    """2x2 reduced density matrix of one slot (others summed out)."""
    if slot not in s.slots:
        raise DimensionMismatchError(f"slot {slot!r} absent from {s.slots}")
    axis = s.slots.index(slot)
    t = np.moveaxis(s.amps.reshape((2,) * s.n_qubits), axis, 0).reshape(2, -1)
    return t @ t.conj().T
