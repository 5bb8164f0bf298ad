"""Independent brute-force oracle used by the tests.

The first section builds everything from raw numpy kron products in the
fixed (A, 1, 2, B) order, without touching the package, so it can serve
as a second route for every derived expectation value.

The float layer below it is the numpy implementation the package shipped
before its quantum layer became exact: labelled float states and
operators, the Bell expansion, and the audit.  The tests keep it as the
reference the exact layer is cross-checked against, and test it on its
own.  The reference section holds slower or test-only implementations
that property tests compare the package against.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from hardylab.core import (
    CANONICAL_SLOTS,
    DimensionMismatchError,
    EmptyBranchError,
    HardyLabError,
    NonCommutingError,
    NormalizationError,
    SlotCollisionError,
    ZeroProbabilityError,
    tolerance,
)
from hardylab.lhv import _INCIDENCE, ASSIGNMENTS, CELLS, LhvModel, rationalize_table
from hardylab.observables import CLAIM_TARGETS, Interpretation
from hardylab.protocol import BELL_ORDER, BellIndex
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


# --- the float layer --------------------------------------------------------


class NonProjectorError(HardyLabError):
    """Projector semantics were requested for a non-projector operator."""


class OperatorInvariantError(HardyLabError):
    """An operator violates Hermiticity, idempotence, or its acts_on claim."""


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


# amplitudes over |++>, |+->, |-+>, |--> for each Bell state
BELL_AMPS = {
    BellIndex.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
    BellIndex.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    BellIndex.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    BellIndex.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
}


def bell_state(index: BellIndex, slots: tuple[str, str] = ("A", "1")) -> StateVector:
    return StateVector(BELL_AMPS[index], tuple(slots))


def make_singlet() -> StateVector:
    return bell_state(BellIndex.PSI_MINUS, ("1", "2"))


def make_ancillas() -> tuple[StateVector, StateVector]:
    return ket("+", ("A",)), StateVector(XPLUS, ("B",))


def make_total_state() -> StateVector:
    a, b = make_ancillas()
    return tensor(tensor(a, make_singlet()), b)


@dataclass(frozen=True)
class Branch:
    """One Bell outcome: ``coefficient * residual``, residual None if empty."""

    bell: BellIndex
    coefficient: complex
    residual: StateVector | None

    @property
    def empty(self) -> bool:
        return self.coefficient == 0


@dataclass(frozen=True)
class BranchExpansion:
    source_slots: tuple[str, ...]
    measured_slots: tuple[str, str]
    residual_slots: tuple[str, ...]
    branches: tuple[Branch, ...]

    def branch(self, index: BellIndex) -> Branch:
        return next(br for br in self.branches if br.bell is index)


def expand_in_bell_basis(
    s: StateVector, slots: tuple[str, str], tol: float | None = None
) -> BranchExpansion:
    """Float Bell expansion: r_b = <b|s> split as coefficient * residual,
    the residual's largest-magnitude amplitude made real and positive."""
    slots = tuple(slots)
    if len(slots) != 2 or len(set(slots)) != 2:
        raise DimensionMismatchError(f"measured slots must be a pair, got {slots}")
    if not set(slots) <= set(s.slots):
        raise DimensionMismatchError(f"slots {slots} not all present on {s.slots}")
    if not s.normalized:
        raise NormalizationError("expansion requires a normalized state")

    tol = tolerance(tol)
    axes = [s.slots.index(l) for l in slots]
    residual_slots = tuple(l for l in s.slots if l not in slots)
    t = np.moveaxis(s.amps.reshape((2,) * s.n_qubits), axes, (0, 1)).reshape(4, -1)

    branches = []
    for index in BELL_ORDER:
        r = BELL_AMPS[index].conj() @ t
        nrm = float(np.linalg.norm(r))
        if nrm <= tol:
            branches.append(Branch(index, 0.0 + 0.0j, None))
            continue
        k = int(np.argmax(np.abs(r)))
        coeff = complex(nrm * r[k] / abs(r[k]))
        if residual_slots:
            residual = StateVector(r / coeff, residual_slots)
        else:
            coeff, residual = complex(r[0]), None
        branches.append(Branch(index, coeff, residual))

    weight = sum(abs(b.coefficient) ** 2 for b in branches)
    if abs(weight - 1.0) > tol:
        raise HardyLabError(f"branch weights sum to {weight!r}, expected 1")
    return BranchExpansion(s.slots, slots, residual_slots, tuple(branches))


def reconstruct(expansion: BranchExpansion) -> StateVector:
    """Reassemble sum(coeff * bell x residual) on the source slot order."""
    order = expansion.measured_slots + expansion.residual_slots
    total = np.zeros(2 ** len(expansion.source_slots), dtype=complex)
    for br in expansion.branches:
        if br.coefficient == 0:
            continue
        bell = BELL_AMPS[br.bell]
        part = np.kron(bell, br.residual.amps) if br.residual is not None else bell
        total += br.coefficient * part
    raw = StateVector.raw(total, order)
    return StateVector(reorder(raw, expansion.source_slots).amps, expansion.source_slots)


PAIR_SLOTS = {"A1": ("A", "1"), "2B": ("2", "B")}


def build_d(pair_slot: str, index: BellIndex) -> ObservableOp:
    which = "D1" if pair_slot == "A1" else "D2"
    return ObservableOp.projector_onto(
        bell_state(index, PAIR_SLOTS[pair_slot]),
        within=CANONICAL_SLOTS,
        name=f"{which}[{index.value}]",
    )


def _pure_slot_state(residual: StateVector, slot: str, tol: float) -> StateVector:
    """The pure single-qubit state of one slot of a product residual."""
    evals, evecs = np.linalg.eigh(reduced_density(residual, slot))
    if evals[-1] < 1.0 - tol:
        raise HardyLabError(
            f"slot {slot!r} of the residual is not pure (top weight {evals[-1]!r})"
        )
    vec = evecs[:, -1]
    k = int(np.argmax(np.abs(vec)))
    return StateVector(vec / (vec[k] / abs(vec[k])), (slot,))


def build_u(
    slot: str, interp: Interpretation, partner_outcome: BellIndex, tol: float | None = None
) -> ObservableOp:
    if interp is Interpretation.FIXED_BASIS:
        return ObservableOp.projector_onto(
            ket("+", (slot,)), within=CANONICAL_SLOTS, name=f"U{slot}[z+]"
        )
    measured = ("A", "1") if slot == "2" else ("2", "B")
    branch = expand_in_bell_basis(make_total_state(), measured, tol).branch(partner_outcome)
    if branch.empty:
        raise EmptyBranchError(f"branch {partner_outcome.value} of {measured} is empty")
    return ObservableOp.projector_onto(
        _pure_slot_state(branch.residual, slot, tolerance(tol)),
        within=CANONICAL_SLOTS,
        name=f"U{slot}[collapsed:{partner_outcome.value}]",
    )


def context_observables(key: str, i: BellIndex, j: BellIndex, interp: Interpretation):
    builders = {
        "d1": lambda: build_d("A1", i),
        "d2": lambda: build_d("2B", j),
        "u1": lambda: build_u("1", interp, j),
        "u2": lambda: build_u("2", interp, i),
    }
    return builders[key[:2]](), builders[key[2:]]()


def conditional_probability(
    cond: ObservableOp, then: ObservableOp, s: StateVector, tol: float | None = None
) -> float:
    if commutator_norm(cond, then) > tolerance(tol):
        raise NonCommutingError(f"{cond.name} and {then.name} do not commute")
    _, post = collapse(cond, s, tol)
    return born_probability(then, post, tol)


def joint_outcome_table(
    first: ObservableOp, second: ObservableOp, s: StateVector, tol: float | None = None
) -> np.ndarray:
    """2x2 joint distribution [a][b], entries below the tolerance clamped to 0."""
    tol_v = tolerance(tol)
    if commutator_norm(first, second) > tol_v:
        raise NonCommutingError(f"{first.name} and {second.name} do not commute")
    u = apply(first, s).amps
    v = apply(second, s).amps
    p_a = float(np.vdot(u, u).real)
    p_b = float(np.vdot(v, v).real)
    p11 = float(np.vdot(u, v).real)
    table = np.array([[1.0 - p_a - p_b + p11, p_b - p11], [p_a - p11, p11]])
    table[np.abs(table) <= tol_v] = 0.0
    return table


def audit_pair(
    i: BellIndex, j: BellIndex, interp: Interpretation, tol: float | None = None
) -> tuple[dict[str, float], dict[str, bool]]:
    """The four Hardy quantities of one pair, and their verdicts."""
    psi = make_total_state()
    d1, d2 = context_observables("d1d2", i, j, interp)
    u1, u2 = context_observables("u1u2", i, j, interp)
    measured = {
        "p_joint": born_probability(d1 @ d2, psi, tol),
        "c_d1u2": conditional_probability(d1, u2, psi, tol),
        "c_d2u1": conditional_probability(d2, u1, psi, tol),
        "p_u1u2": born_probability(u1 @ u2, psi, tol),
    }
    targets = CLAIM_TARGETS.to_jsonable()
    verdicts = {key: abs(v - targets[key]) <= tolerance(tol) for key, v in measured.items()}
    return measured, verdicts


def quantum_tables(i: BellIndex, j: BellIndex, interp: Interpretation) -> dict[str, np.ndarray]:
    psi = make_total_state()
    keys = ("d1d2", "d1u2", "u1d2", "u1u2")
    return {k: joint_outcome_table(*context_observables(k, i, j, interp), psi) for k in keys}


# --- bridges from the exact layer ---------------------------------------------


def as_float(s) -> StateVector:
    """An exact ``hardylab.core.StateVector`` as a float one."""
    amps = np.array(s.amps, dtype=complex) / math.sqrt(s.norm2)
    return StateVector(amps, s.slots, normalized=s.normalized)


def exact_ket(pattern: str, slots: tuple[str, ...]):
    """Exact computational basis state from a pattern like ``"+-"``."""
    from hardylab.core import StateVector as ExactState

    index = int(pattern.replace("+", "0").replace("-", "1"), 2)
    return ExactState(tuple(int(i == index) for i in range(2 ** len(slots))), tuple(slots))


def dense(op) -> np.ndarray:
    """The matrix of an exact operator as a numpy array."""
    return np.asarray(op.matrix)


# --- reference implementations ---------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def cell_probability(model: LhvModel, cell) -> Fraction:
    """The probability a mixture of deterministic assignments gives one cell."""
    hits = zip(ASSIGNMENTS, _INCIDENCE[cell])
    return sum((model.weights.get(a, 0) for a, hit in hits if hit), Fraction(0))


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
            cell_probability(model, cell) == exact[cell[0]][cell[1]][cell[2]]
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


def sample_reference(state, cfg, first_shot: int = 0):
    """Reference sampler: one float uniform per shot, placed by searchsorted.

    It holds every shot's word, uniform and cell index at once.
    """
    probs = exact_context_probabilities(state, cfg)
    flat = np.array([float(probs[a][b]) for a, b in CELL_ORDER])
    flat = flat / flat.sum()
    boundaries = np.cumsum(flat)
    boundaries[-1] = 1.0  # guard against float shortfall at the top end

    u = shot_uniforms(cfg.seed, first_shot, cfg.shots)
    outcomes = np.searchsorted(boundaries, u, side="right")
    counts = np.bincount(outcomes, minlength=4).reshape(2, 2)
    return CountTable(counts, cfg.shots)
