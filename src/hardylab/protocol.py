"""The four-qubit teleportation state and its two Bell-basis expansions.

The construction under audit: qubits 1 and 2 share a singlet, Alice holds
ancilla A prepared spin-up along z, Bob holds ancilla B prepared spin-up
along x.  Expanding the product state in the Bell basis of (A, 1) or of
(2, B) yields four branches each; :func:`verify_expansion` re-derives them
mechanically and compares against the reference branch table shipped in
``data/reference_expansions.txt``.

The state is a module constant, and each of its two expansions is derived
once per process, on first use.  Branch vectors are compared exactly
through the signed square x*|x| of every entry, which is a Fraction on
both sides; a branch reports a phase only when +1 or -1 makes it match.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import NamedTuple

from .core import (
    DimensionMismatchError,
    HardyLabError,
    StateVector,
    partial_overlap,
    tensor,
)


class BellIndex(Enum):
    """The four Bell states, in the fixed reporting order."""

    PSI_MINUS = "psi-"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PHI_PLUS = "phi+"


BELL_ORDER: tuple[BellIndex, ...] = (
    BellIndex.PSI_MINUS,
    BellIndex.PSI_PLUS,
    BellIndex.PHI_MINUS,
    BellIndex.PHI_PLUS,
)

# integer amplitudes over |++>, |+->, |-+>, |--> for each Bell state (norm2 2)
_BELL_AMPS = {
    BellIndex.PSI_MINUS: (0, 1, -1, 0),
    BellIndex.PSI_PLUS: (0, 1, 1, 0),
    BellIndex.PHI_MINUS: (1, 0, 0, -1),
    BellIndex.PHI_PLUS: (1, 0, 0, 1),
}


def bell_state(index: BellIndex, slots: tuple[str, str] = ("A", "1")) -> StateVector:
    """The named Bell state on a pair of slots."""
    if len(slots) != 2:
        raise DimensionMismatchError("a Bell state lives on exactly two slots")
    return StateVector(_BELL_AMPS[index], tuple(slots))


def make_singlet() -> StateVector:
    """(|+-> - |-+>)/sqrt(2) on slots (1, 2)."""
    return bell_state(BellIndex.PSI_MINUS, ("1", "2"))


def make_ancillas() -> tuple[StateVector, StateVector]:
    """Ancilla states: A spin-up along z, B spin-up along x."""
    return StateVector((1, 0), ("A",)), StateVector((1, 1), ("B",))


#: The full product state on canonical slots (A, 1, 2, B).  Its 16
#: amplitudes, read row-major, are the 4x4 integer matrix with rows (A, 1)
#: and columns (2, B).
TOTAL_STATE = tensor(tensor(make_ancillas()[0], make_singlet()), make_ancillas()[1])


def make_total_state() -> StateVector:
    """The full product state on canonical slots (A, 1, 2, B)."""
    return TOTAL_STATE


class Branch(NamedTuple):
    """One Bell outcome of a pair measurement.

    The branch is ``sign * sqrt(weight) * residual``, with ``weight`` exact
    and ``sign`` +1 or -1 (0 for an empty branch).  ``residual`` is the unit
    state left on the unmeasured slots, with its largest-magnitude
    amplitude positive; it is ``None`` for an empty branch, so that
    nothing ever renormalizes a zero vector, and when every slot is
    measured.
    """

    bell: BellIndex
    weight: Fraction
    sign: int
    residual: StateVector | None

    @property
    def empty(self) -> bool:
        return self.weight == 0


class BranchExpansion(NamedTuple):
    measured_slots: tuple[str, str]
    residual_slots: tuple[str, ...]
    branches: tuple[Branch, ...]

    def branch(self, index: BellIndex) -> Branch:
        for br in self.branches:
            if br.bell is index:
                return br
        raise KeyError(index)


def expand_in_bell_basis(s: StateVector, slots: tuple[str, str]) -> BranchExpansion:
    """Decompose ``s`` over the Bell basis of a slot pair.

    For each Bell state b the partial inner product r_b = <b|s> is split
    as coefficient * residual with the residual a unit ket; its sign is
    fixed by making the residual's largest-magnitude amplitude positive,
    so the split is deterministic.  Branch weights |coeff|^2 are exact and
    must sum to exactly 1.
    """
    slots = tuple(slots)
    if len(slots) != 2 or len(set(slots)) != 2:
        raise DimensionMismatchError(f"measured slots must be a pair, got {slots}")
    if not set(slots) <= set(s.slots):
        raise DimensionMismatchError(f"slots {slots} not all present on {s.slots}")

    residual_slots = tuple(label for label in s.slots if label not in slots)
    branches = []
    for index in BELL_ORDER:
        r = partial_overlap(bell_state(index, slots), s)
        weight = Fraction(sum(x * x for x in r), 2 * s.norm2)
        if not weight:
            branches.append(Branch(index, weight, 0, None))
            continue
        top = max(r, key=abs)  # the first amplitude of largest magnitude
        sign = 1 if top > 0 else -1
        residual = None
        if residual_slots:
            g = math.gcd(*r)
            residual = StateVector(tuple(sign * x // g for x in r), residual_slots)
        branches.append(Branch(index, weight, sign, residual))

    weight = sum(b.weight for b in branches)
    if weight != 1:
        raise HardyLabError(f"branch weights sum to {weight}, expected 1")
    return BranchExpansion(slots, residual_slots, tuple(branches))


#: The measured pair of each station: Alice's (A, 1), Bob's (2, B).
PAIR_SLOTS = {"A1": ("A", "1"), "2B": ("2", "B")}


@cache
def bell_expansion(pair: str) -> BranchExpansion:
    """The expansion of :data:`TOTAL_STATE` over pair ``A1`` or ``2B``."""
    return expand_in_bell_basis(TOTAL_STATE, PAIR_SLOTS[pair])


# --- comparison against the shipped reference branch table ---------------
# Entries are compared through their signed squares x*|x|: the map is
# strictly increasing, and it takes a rational, a rational over sqrt(2) and
# a derived entry sign * sqrt(weight/norm2) * amp alike to a Fraction.

_COEFF_RE = re.compile(r"^([+-]?)(\d+)(?:/(\d*)(sqrt2)?)?$")
_KET_RE = re.compile(r"^\|([+-]+)>$")


def _parse_coeff(token: str) -> Fraction:
    """The signed square of one coefficient token."""
    token = token.strip()
    m = _COEFF_RE.match(token)
    if not m or m.group(3) == "" and not m.group(4):  # "1/" names no denominator
        raise HardyLabError(f"bad coefficient token {token!r}")
    den = int(m.group(3) or 1)
    if den == 0:
        raise HardyLabError(f"zero denominator in coefficient token {token!r}")
    square = Fraction(int(m.group(2)), den) ** 2
    if m.group(4):
        square /= 2
    return -square if m.group(1) == "-" else square


def _parse_ket(token: str, n: int) -> int:
    m = _KET_RE.match(token.strip())
    if not m or len(m.group(1)) != n:
        raise HardyLabError(f"bad ket token {token!r} for {n} slots")
    index = 0
    for ch in m.group(1):
        index = 2 * index + (0 if ch == "+" else 1)
    return index


def load_reference_table(pair: str) -> tuple[tuple[str, ...], dict[BellIndex, list[Fraction]]]:
    """Parse one section of data/reference_expansions.txt.

    Returns the residual slot order and, per Bell label, the signed square
    x*|x| of every entry of the full branch vector, overall scale folded in
    (the signed square of a product is the product of the signed squares).
    """
    if pair not in PAIR_SLOTS:
        raise HardyLabError(f"unknown expansion pair {pair!r}")
    text = (
        resources.files("hardylab")
        .joinpath("data/reference_expansions.txt")
        .read_text(encoding="utf-8")
    )
    section = None
    remaining: tuple[str, ...] = ()
    scale = Fraction(1)
    table: dict[BellIndex, list[Fraction]] = {}
    labels = {b.value: b for b in BELL_ORDER}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        if section != pair:
            continue
        if "=" in line and ":" not in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "remaining":
                remaining = tuple(value.split())
            elif key == "scale":
                scale = _parse_coeff(value)
            else:
                raise HardyLabError(f"unknown key {key!r} in reference table")
            continue
        label, _, body = line.partition(":")
        bell = labels.get(label.strip())
        if bell is None:
            raise HardyLabError(f"unknown branch label {label.strip()!r}")
        vec = [Fraction(0)] * 2 ** len(remaining)
        seen = set()
        for term in body.split(","):
            coeff_tok, ket_tok = term.split("|", 1)
            k = _parse_ket("|" + ket_tok, len(remaining))
            if k in seen:
                raise HardyLabError(f"ket |{ket_tok.strip()} repeated in branch {bell.value}")
            seen.add(k)
            vec[k] = scale * _parse_coeff(coeff_tok)
        table[bell] = vec
    if len(table) != 4:
        raise HardyLabError(f"reference table for {pair!r} is incomplete")
    return remaining, table


class BranchComparison(NamedTuple):
    bell: BellIndex
    empty: bool
    phase: int | None  # derived branch = phase * reference branch, phase = +-1

    @property
    def exact_match(self) -> bool:
        return self.phase == 1

    @property
    def phase_match(self) -> bool:
        return self.phase is not None


class ExpansionReport(NamedTuple):
    measured_slots: tuple[str, str]
    comparisons: tuple[BranchComparison, ...]

    @property
    def all_exact(self) -> bool:
        return all(c.exact_match for c in self.comparisons)

    @property
    def all_phase(self) -> bool:
        return all(c.phase_match for c in self.comparisons)

    def to_jsonable(self) -> dict:
        return {
            "measured_slots": list(self.measured_slots),
            "all_exact": self.all_exact,
            "all_up_to_phase": self.all_phase,
            "branches": [
                {
                    "bell": c.bell.value,
                    "empty": c.empty,
                    "exact_match": c.exact_match,
                    "phase_match": c.phase_match,
                    "phase": None
                    if c.phase is None
                    else {"re": float(c.phase), "im": 0.0},
                }
                for c in self.comparisons
            ],
        }


def _compare(br: Branch, ref: list[Fraction]) -> BranchComparison:
    """One derived branch against its reference signed squares.  Every
    branch of :data:`TOTAL_STATE`'s expansions has weight 1/4, so a residual."""
    q = br.sign * br.weight / br.residual.norm2
    derived = [q * x * abs(x) for x in br.residual.amps]
    phase = 1 if derived == ref else -1 if derived == [-v for v in ref] else None
    return BranchComparison(br.bell, br.empty, phase)


def verify_expansion(pair: str) -> ExpansionReport:
    """Compare the expansion of :data:`TOTAL_STATE` over ``pair`` (``A1``
    or ``2B``) with the reference branch table.

    A branch's phase is +1 if it equals its reference exactly, -1 if it
    equals the reference's negation, and None if neither; a per-branch
    phase is unobservable, so a phase match is the physically meaningful
    criterion.  Both tests compare signed squares as Fractions.
    """
    if pair not in PAIR_SLOTS:
        raise HardyLabError(f"unknown expansion pair {pair!r} (want A1 or 2B)")
    expansion = bell_expansion(pair)
    ref_slots, ref_table = load_reference_table(pair)
    if ref_slots != expansion.residual_slots:
        raise HardyLabError(
            f"reference residual slots {ref_slots} != derived {expansion.residual_slots}"
        )
    return ExpansionReport(
        expansion.measured_slots,
        tuple(_compare(br, ref_table[br.bell]) for br in expansion.branches),
    )
