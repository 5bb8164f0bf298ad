"""Exact states and projectors on up to four labelled qubits.

Every amplitude in this construction is an integer times a power of
1/sqrt(2), so states are held as integer vectors: a :class:`StateVector`
with integer ``amps`` stands for ``amps / sqrt(norm2)``, and a unit state's
``norm2`` is the squared length of ``amps``.  Every observable is a
rank-one projector onto such a state on its own slots, identity on the
rest.  Probabilities come out as exact :class:`~fractions.Fraction`\\ s,
so zero means exact zero and no tolerance enters the algebra.

States carry explicit slot labels (drawn from A, 1, 2, B), so tensor
factors can never be silently reordered.  Basis convention: each qubit
uses the (+, -) basis with "+" mapped to index 0, and multi-qubit
amplitudes are stored row-major with the first slot label as the most
significant bit.  The canonical full slot order is (A, 1, 2, B).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import mul

CANONICAL_SLOTS = ("A", "1", "2", "B")

# Single comparison knob for the whole package.  It widens the audit's
# verdicts and the rationalization of float table cells; the exact algebra
# here never reads it.
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


class ZeroProbabilityError(HardyLabError):
    """Conditioning or collapsing on an event of probability zero."""


class NonCommutingError(HardyLabError):
    """A jointly measured pair of observables does not commute."""


class EmptyBranchError(HardyLabError):
    """A measurement branch with zero weight was requested."""


@cache
def _validate_slots(slots: tuple[str, ...]) -> None:
    if not 1 <= len(slots) <= 4:
        raise DimensionMismatchError(f"slot count must be 1..4, got {len(slots)}")
    if len(set(slots)) != len(slots):
        raise SlotCollisionError(f"duplicate slot labels in {slots}")
    unknown = set(slots) - set(CANONICAL_SLOTS)
    if unknown:
        raise DimensionMismatchError(f"unknown slot labels {sorted(unknown)}")


@dataclass(frozen=True)
class StateVector:
    """A real pure state over labelled qubits: ``amps / sqrt(norm2)``.

    ``amps`` holds one integer per basis state of ``slots``.  The public
    constructor makes a unit state, whose ``norm2`` is the squared length
    of ``amps``; unnormalized intermediates (projection residues) are
    created through :meth:`raw` with their own ``norm2``.
    """

    amps: tuple[int, ...]
    slots: tuple[str, ...]
    norm2: int | None = None
    normalized: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        _validate_slots(slots)
        amps = tuple(self.amps)
        if len(amps) != 2 ** len(slots):
            raise DimensionMismatchError(f"{len(amps)} amplitudes for slots {slots}")
        if not {int}.issuperset(map(type, amps)):
            raise HardyLabError(f"amplitudes must be integers, got {amps}")
        length2 = sum(map(mul, amps, amps))
        if self.norm2 is None and not length2:
            raise NormalizationError(f"the zero vector on {slots} is not a state")
        norm2 = length2 if self.norm2 is None else self.norm2
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "norm2", norm2)
        object.__setattr__(self, "normalized", length2 == norm2)

    @classmethod
    def raw(cls, amps, slots: tuple[str, ...], norm2: int) -> "StateVector":
        """``amps / sqrt(norm2)``, without the unit-norm invariant."""
        if norm2 <= 0:
            raise NormalizationError(f"norm2 must be positive, got {norm2}")
        return cls(amps, slots, norm2)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of unit states; slot labels concatenate."""
    return StateVector(tuple(x * y for x in a.amps for y in b.amps), a.slots + b.slots)


@cache
def _split(slots: tuple[str, ...], support: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Per basis index over ``slots``: its index over ``support`` (in that
    order) and its index over the other slots (in ``slots`` order)."""
    n = len(slots)
    inside = [slots.index(label) for label in support]
    outside = [k for k in range(n) if slots[k] not in support]

    def index(i: int, axes: list[int]) -> int:
        return sum(((i >> (n - 1 - k)) & 1) << (len(axes) - 1 - j) for j, k in enumerate(axes))

    return tuple((index(i, inside), index(i, outside)) for i in range(2**n))


def partial_overlap(target: StateVector, s: StateVector) -> list[int]:
    """<target| s> over the slots of ``s`` outside ``target``, in their order.

    The integers returned are the overlap times sqrt(target.norm2 * s.norm2).
    """
    if not set(target.slots) <= set(s.slots):
        raise DimensionMismatchError(f"slots {target.slots} not all present on {s.slots}")
    split = _split(s.slots, target.slots)
    k = target.amps
    out = [0] * (len(s.amps) >> len(target.slots))
    for i, a in enumerate(s.amps):
        if a:
            t, r = split[i]
            out[r] += k[t] * a
    return out


@dataclass(frozen=True, eq=False)
class ObservableOp:
    """The projector onto the unit state ``target`` on its slots, identity
    on every other slot.

    Hermiticity, idempotence and identity off ``target.slots`` hold by
    construction.  Operators compare and hash by identity, so a built
    operator can key a cache.
    """

    target: StateVector
    name: str = ""

    is_projector = True

    def __post_init__(self) -> None:
        if not self.target.normalized:
            raise NormalizationError("projector target must be normalized")

    @cached_property
    def acts_on(self) -> frozenset:
        return frozenset(self.target.slots)

    def __matmul__(self, other: "ObservableOp") -> "ObservableOp":
        """Product of projectors on disjoint slots: the projector onto
        the tensor product of their targets."""
        if self.acts_on & other.acts_on:
            raise HardyLabError(
                f"{self.name} and {other.name} share slots; products are formed "
                "only across disjoint slots"
            )
        return ObservableOp(tensor(self.target, other.target), f"{self.name}*{other.name}")

    @cached_property
    def matrix(self) -> memoryview:
        """The dense matrix on the canonical slots, as a read-only 2-D
        memoryview of doubles (built on first use).  Its exact entries are
        integers over ``target.norm2``; for this construction they are
        dyadic, so the doubles are exact."""
        dense = _dense(self.target, CANONICAL_SLOTS)
        flat = array("d", (v / self.target.norm2 for row in dense for v in row))
        return memoryview(flat).toreadonly().cast("B").cast("d", (len(dense), len(dense)))


def _dense(target: StateVector, slots: tuple[str, ...]) -> list[list[int]]:
    """|k><k| on ``target.slots``, identity elsewhere, written on ``slots``
    (an integer matrix: the projector times ``target.norm2``)."""
    split = _split(slots, target.slots)
    k = target.amps
    return [[k[tx] * k[ty] if rx == ry else 0 for ty, ry in split] for tx, rx in split]


def apply(op: ObservableOp, s: StateVector) -> StateVector:
    """The projection residue ``op |s>``, exact and unnormalized."""
    w = partial_overlap(op.target, s)
    k = op.target.amps
    amps = [k[t] * w[r] for t, r in _split(s.slots, op.target.slots)]
    return StateVector.raw(amps, s.slots, op.target.norm2**2 * s.norm2)


def born_probability(op: ObservableOp, s: StateVector) -> Fraction:
    """Exact probability of the projective outcome ``op`` on unit ``s``."""
    if not s.normalized:
        raise NormalizationError("born_probability requires a normalized state")
    w = partial_overlap(op.target, s)
    return Fraction(sum(map(mul, w, w)), op.target.norm2 * s.norm2)


def collapse(op: ObservableOp, s: StateVector) -> tuple[Fraction, StateVector]:
    """Project and renormalize: returns ``(probability, post_state)``.

    An outcome of probability exactly zero raises
    :class:`ZeroProbabilityError`, so callers can tell an impossible
    branch from a merely small one.
    """
    if not s.normalized:
        raise NormalizationError("collapse requires a normalized state")
    post = apply(op, s)
    p = Fraction(sum(map(mul, post.amps, post.amps)), post.norm2)
    if not p:
        raise ZeroProbabilityError(f"collapse on {op.name or 'projector'} has probability 0")
    g = math.gcd(*post.amps)
    return p, StateVector(tuple(a // g for a in post.amps), s.slots)


def commutator_norm(a: ObservableOp, b: ObservableOp) -> Fraction:
    """Exact max-entry magnitude of ``AB - BA``.

    Projectors on disjoint slots commute; otherwise both are written out
    on the union of their slots and the commutator is formed in integers.
    """
    if not a.acts_on & b.acts_on:
        return Fraction(0)
    on = a.target.slots + tuple(x for x in b.target.slots if x not in a.acts_on)
    ma, mb = _dense(a.target, on), _dense(b.target, on)
    ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mb)] for row in ma]
    ba = [[sum(x * y for x, y in zip(row, col)) for col in zip(*ma)] for row in mb]
    largest = max(abs(x - y) for r, q in zip(ab, ba) for x, y in zip(r, q))
    return Fraction(largest, a.target.norm2 * b.target.norm2)
