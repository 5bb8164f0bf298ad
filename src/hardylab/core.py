"""Exact states and projectors on up to four labelled qubits.

Every amplitude in this construction is an integer times a power of
1/sqrt(2), so states are held as integer vectors: a :class:`StateVector`
with integer ``amps`` stands for the unit ket ``amps / sqrt(norm2)``, where
``norm2`` is the squared length of ``amps``.  Every state is such a unit
ket; the zero vector, which has no direction, is the one integer vector
that is not a state.  Every observable is a rank-one projector onto such a
state on its own slots, identity on the rest.  A probability is an exact
integer weight ``(num, den)``, and a :class:`~fractions.Fraction` is built
from it only for a value that is reported, so zero means exact zero and no
tolerance enters the algebra.

States carry explicit slot labels (drawn from A, 1, 2, B), so tensor
factors can never be silently reordered.  Basis convention: each qubit
uses the (+, -) basis with "+" mapped to index 0, and multi-qubit
amplitudes are stored row-major with the first slot label as the most
significant bit.  The canonical full slot order is (A, 1, 2, B).

The module also holds what the audit and the LHV side share: the four
context keys of a table, :class:`HardyClaimSet` with the paper's targets,
and the one tolerance rule :func:`within_tolerance`.  Records that validate
their fields derive from :class:`Frozen`, which refuses assignment once
``__init__`` has run; the others are named tuples.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import NamedTuple

CANONICAL_SLOTS = ("A", "1", "2", "B")

#: The four measurement contexts of a probability table, in report order.
CONTEXT_KEYS = ("d1d2", "d1u2", "u1d2", "u1u2")

#: Default comparison tolerance, read only as an argument of the audit's
#: verdicts, the deduction replay and the check of a float table cell, which
#: all decide by :func:`within_tolerance`; the exact algebra never reads it.
TOLERANCE = 1e-12


class HardyLabError(Exception):
    """Base class for every error raised by this package."""


class SlotCollisionError(HardyLabError):
    """Two tensor factors claimed the same slot label."""


class DimensionMismatchError(HardyLabError):
    """Operands live on different slot sets or have inconsistent shapes."""


class NormalizationError(HardyLabError):
    """The zero vector is not a state: it has no unit direction."""


class ZeroProbabilityError(HardyLabError):
    """Conditioning or collapsing on an event of probability zero."""


class NonCommutingError(HardyLabError):
    """A jointly measured pair of observables does not commute."""


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite int, float or Fraction >= 0, not a
    bool (0 compares exactly)."""
    if isinstance(tol, bool) or not (hasattr(tol, "as_integer_ratio") and 0 <= tol < math.inf):
        raise HardyLabError(
            f"a tolerance must be a finite int, float or Fraction >= 0, not a bool: {tol!r}"
        )
    return tol


def within_tolerance(value: tuple, target: tuple, tol: tuple) -> bool:
    """Whether ``|p/q - x/y| <= t/s`` for the integer ratios ``value``,
    ``target``, ``tol`` = ``(p, q)``, ``(x, y)``, ``(t, s)``, denominators > 0:
    the one rule for the audit's verdicts, the replay's certainties and float
    table cells, each float read exactly, as its ``as_integer_ratio()``."""
    (p, q), (x, y), (t, s) = value, target, tol
    return abs(p * y - x * q) * s <= t * q * y  # cleared of the denominators


@cache
def _validate_slots(slots: tuple[str, ...]) -> None:
    if not 1 <= len(slots) <= 4:
        raise DimensionMismatchError(f"slot count must be 1..4, got {len(slots)}")
    if len(set(slots)) != len(slots):
        raise SlotCollisionError(f"duplicate slot labels in {slots}")
    unknown = set(slots) - set(CANONICAL_SLOTS)
    if unknown:
        raise DimensionMismatchError(f"unknown slot labels {sorted(unknown)}")


class Frozen:
    """Base of the records that validate their fields: after ``__init__``
    has set them with ``object.__setattr__``, they cannot be changed."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class StateVector(Frozen):
    """A real unit ket over labelled qubits: ``amps / sqrt(norm2)``.

    ``amps`` holds one integer per basis state of ``slots``, and ``norm2``
    is always their squared length, so every state is a unit ket.  Of the
    integer vectors only the zero vector is refused, as it has no direction
    (:class:`NormalizationError`).  States compare and hash by
    ``(amps, slots)``.
    """

    def __init__(self, amps, slots: tuple[str, ...]) -> None:
        slots = tuple(slots)
        _validate_slots(slots)
        amps = tuple(amps)
        if len(amps) != 2 ** len(slots):
            raise DimensionMismatchError(f"{len(amps)} amplitudes for slots {slots}")
        if not {int}.issuperset(map(type, amps)):
            raise HardyLabError(f"amplitudes must be integers, got {amps}")
        norm2 = sum(map(mul, amps, amps))
        if not norm2:
            raise NormalizationError(f"the zero vector on {slots} is not a state")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "norm2", norm2)

    def __eq__(self, other):
        if type(other) is not StateVector:
            return NotImplemented
        return (self.amps, self.slots) == (other.amps, other.slots)

    def __hash__(self) -> int:
        return hash((self.amps, self.slots))

    def __repr__(self) -> str:
        return f"StateVector(amps={self.amps!r}, slots={self.slots!r})"

    @cached_property
    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """The ``(index, amp)`` pairs of the nonzero amplitudes, in index order."""
        return tuple((i, a) for i, a in enumerate(self.amps) if a)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of states; slot labels concatenate."""
    return StateVector(tuple(x * y for x in a.amps for y in b.amps), a.slots + b.slots)


@cache
def _split(slots: tuple[str, ...], support: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Per basis index over ``slots``: its index over ``support`` (in that
    order) and its index over the other slots (in ``slots`` order).

    ``support`` must lie within ``slots`` (:class:`DimensionMismatchError`);
    a refusal is not cached, so a bad pair of slot tuples raises every time.
    """
    if not set(support) <= set(slots):
        raise DimensionMismatchError(f"slots {support} not all present on {slots}")
    n = len(slots)
    inside = [slots.index(label) for label in support]
    outside = [k for k in range(n) if slots[k] not in support]

    def index(i: int, axes: list[int]) -> int:
        return sum(((i >> (n - 1 - k)) & 1) << (len(axes) - 1 - j) for j, k in enumerate(axes))

    return tuple((index(i, inside), index(i, outside)) for i in range(2**n))


def partial_overlap(target: StateVector, s: StateVector) -> list[int]:
    """<target| s> over the slots of ``s`` outside ``target``, in their order.

    The integers returned are the overlap times sqrt(target.norm2 * s.norm2).
    Only the nonzero amplitudes of ``s`` are read (:attr:`StateVector.nonzero`,
    listed once per state): 4 of the total state's 16.  The slots of
    ``target`` must all be on ``s``; the cached :func:`_split` checks that
    once per pair of slot tuples, and raises
    :class:`DimensionMismatchError` on every call that breaks it.
    """
    split = _split(s.slots, target.slots)
    k = target.amps
    out = [0] * (len(s.amps) >> len(target.slots))
    for i, a in s.nonzero:
        t, r = split[i]
        out[r] += k[t] * a
    return out


class ObservableOp(Frozen):
    """The projector onto the unit state ``target`` on its slots, identity
    on every other slot.

    Hermiticity, idempotence and identity off ``target.slots`` hold by
    construction.  Operators compare and hash by identity, so a built
    operator can key a cache.
    """

    def __init__(self, target: StateVector, name: str = "") -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "name", name)

    @cached_property
    def acts_on(self) -> frozenset:
        return frozenset(self.target.slots)

    def __matmul__(self, other: "ObservableOp") -> "ObservableOp":
        """Product of projectors on disjoint slots: the projector onto
        the tensor product of their targets.  A projector times itself is
        itself."""
        if other.target == self.target:
            return self
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


def apply(op: ObservableOp, s: StateVector) -> tuple[tuple[int, ...], int]:
    """The projection residue ``op |s>`` as ``(amps, norm2)``: the vector
    ``amps / sqrt(norm2)`` over ``s.slots``, exact and not a unit ket (it
    may be zero), so it is no :class:`StateVector`."""
    w = partial_overlap(op.target, s)
    k = op.target.amps
    amps = tuple(k[t] * w[r] for t, r in _split(s.slots, op.target.slots))
    return amps, op.target.norm2**2 * s.norm2


def born_weight(op: ObservableOp, s: StateVector) -> tuple[int, int]:
    """Exact probability of the projective outcome ``op`` on ``s``,
    as integers ``(num, den)`` with ``den > 0``, not reduced."""
    w = partial_overlap(op.target, s)
    return sum(map(mul, w, w)), op.target.norm2 * s.norm2


def born_probability(op: ObservableOp, s: StateVector) -> Fraction:
    """Exact probability of the projective outcome ``op`` on ``s``."""
    return Fraction(*born_weight(op, s))


def collapse(op: ObservableOp, s: StateVector) -> tuple[Fraction, StateVector]:
    """Project and renormalize: returns ``(probability, post_state)``.

    An outcome of probability exactly zero raises
    :class:`ZeroProbabilityError`, so callers can tell an impossible
    branch from a merely small one.
    """
    amps, norm2 = apply(op, s)
    p = Fraction(sum(map(mul, amps, amps)), norm2)
    if not p:
        raise ZeroProbabilityError(f"collapse on {op.name or 'projector'} has probability 0")
    g = math.gcd(*amps)
    return p, StateVector(tuple(a // g for a in amps), s.slots)


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


class HardyClaimSet(NamedTuple):
    """The four audited quantities (measured or claimed), exact or float."""

    p_joint: Fraction | float
    c_d1u2: Fraction | float
    c_d2u1: Fraction | float
    p_u1u2: Fraction | float

    def to_jsonable(self) -> dict:
        return {key: float(value) for key, value in self._asdict().items()}


#: The advertised values the audit compares against, and their integer ratios.
CLAIM_TARGETS = HardyClaimSet(Fraction(1, 16), Fraction(1), Fraction(1), Fraction(0))
TARGET_RATIOS = {key: target.as_integer_ratio() for key, target in CLAIM_TARGETS._asdict().items()}
