"""The four-qubit teleportation state and its two Bell-basis expansions.

The construction under audit: qubits 1 and 2 share a singlet, Alice holds
ancilla A prepared spin-up along z, Bob holds ancilla B prepared spin-up
along x.  Expanding the product state in the Bell basis of (A, 1) or of
(2, B) yields four branches each; :func:`verify_expansion` re-derives them
mechanically and compares against the reference branch table shipped in
``data/reference_expansions.txt``.

The state is a module constant, and each of its two expansions is derived
once per process, on first use.  Branch vectors are compared exactly, in
Q(sqrt 2): every value is written ``a + b*sqrt(2)`` with rational a, b.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from importlib import resources

from .core import (
    DimensionMismatchError,
    HardyLabError,
    NormalizationError,
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


@dataclass(frozen=True)
class Branch:
    """One Bell outcome of a pair measurement.

    The branch is ``coefficient * residual`` with ``weight`` =
    |coefficient|^2 exact and ``sign`` its sign.  ``residual`` is the unit
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
    def coefficient(self) -> float:
        return self.sign * math.sqrt(self.weight)

    @property
    def empty(self) -> bool:
        return self.weight == 0


@dataclass(frozen=True)
class BranchExpansion:
    source_slots: tuple[str, ...]
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
    as coefficient * residual with the residual normalized; its sign is
    fixed by making the residual's largest-magnitude amplitude positive,
    so the split is deterministic.  Branch weights |coeff|^2 are exact and
    must sum to exactly 1.
    """
    slots = tuple(slots)
    if len(slots) != 2 or len(set(slots)) != 2:
        raise DimensionMismatchError(f"measured slots must be a pair, got {slots}")
    if not set(slots) <= set(s.slots):
        raise DimensionMismatchError(f"slots {slots} not all present on {s.slots}")
    if not s.normalized:
        raise NormalizationError("expansion requires a normalized state")

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
    return BranchExpansion(s.slots, slots, residual_slots, tuple(branches))


#: The measured pair of each station: Alice's (A, 1), Bob's (2, B).
PAIR_SLOTS = {"A1": ("A", "1"), "2B": ("2", "B")}


@cache
def bell_expansion(pair: str) -> BranchExpansion:
    """The expansion of :data:`TOTAL_STATE` over pair ``A1`` or ``2B``."""
    return expand_in_bell_basis(TOTAL_STATE, PAIR_SLOTS[pair])


# --- comparison against the shipped reference branch table ---------------

#: A value of Q(sqrt 2): the pair (a, b) stands for a + b*sqrt(2).
Q2 = tuple[Fraction, Fraction]

_COEFF_RE = re.compile(r"^([+-]?)(\d+)(?:/(\d*)(sqrt2)?)?$")
_KET_RE = re.compile(r"^\|([+-]+)>$")


def _parse_coeff(token: str) -> Q2:
    m = _COEFF_RE.match(token.strip())
    if not m:
        raise HardyLabError(f"bad coefficient token {token!r}")
    value = Fraction(int(m.group(2)), int(m.group(3)) if m.group(3) else 1)
    if m.group(1) == "-":
        value = -value
    # v / sqrt(2) = (v / 2) * sqrt(2)
    return (Fraction(0), value / 2) if m.group(4) else (value, Fraction(0))


def _times(x: Q2, y: Q2) -> Q2:
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _sign(x: Q2) -> int:
    """The sign of a + b*sqrt(2): a decides where a^2 > 2 b^2, else b."""
    a, b = x
    lead = a if a * a > 2 * b * b else b
    return (lead > 0) - (lead < 0)


def _sqrt(q: Fraction) -> Q2 | None:
    """sqrt(q) in Q(sqrt 2), or None where it lies outside."""
    m = q.numerator * q.denominator  # sqrt(n/d) = sqrt(n*d)/d
    for f in (1, 2):
        t = math.isqrt(m // f)
        if f * t * t == m:
            root = Fraction(t, q.denominator)
            return (root, Fraction(0)) if f == 1 else (Fraction(0), root)
    return None


def _parse_ket(token: str, n: int) -> int:
    m = _KET_RE.match(token.strip())
    if not m or len(m.group(1)) != n:
        raise HardyLabError(f"bad ket token {token!r} for {n} slots")
    index = 0
    for ch in m.group(1):
        index = 2 * index + (0 if ch == "+" else 1)
    return index


def load_reference_table(pair: str) -> tuple[tuple[str, ...], dict[BellIndex, list[Q2]]]:
    """Parse one section of data/reference_expansions.txt.

    Returns the residual slot order and, per Bell label, the full signed
    branch vector (overall scale folded in) over Q(sqrt 2).
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
    scale = (Fraction(1), Fraction(0))
    table: dict[BellIndex, list[Q2]] = {}
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
        vec = [(Fraction(0), Fraction(0))] * 2 ** len(remaining)
        for term in body.split(","):
            coeff_tok, ket_tok = term.split("|", 1)
            k = _parse_ket("|" + ket_tok, len(remaining))
            c = _parse_coeff(coeff_tok)
            vec[k] = (vec[k][0] + c[0], vec[k][1] + c[1])
        table[bell] = [_times(scale, v) for v in vec]
    if len(table) != 4:
        raise HardyLabError(f"reference table for {pair!r} is incomplete")
    return remaining, table


@dataclass(frozen=True)
class BranchComparison:
    bell: BellIndex
    empty: bool
    exact_match: bool
    phase_match: bool
    phase: int | None  # derived branch = phase * reference branch, phase = +-1


@dataclass(frozen=True)
class ExpansionReport:
    measured_slots: tuple[str, str]
    comparisons: tuple[BranchComparison, ...]
    all_exact: bool
    all_phase: bool

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


def _compare(br: Branch, ref: list[Q2]) -> BranchComparison:
    """One derived branch against its reference vector, exactly.  Every
    branch of :data:`TOTAL_STATE`'s expansions has weight 1/4, so a residual."""
    amps = br.residual.amps
    # derived = sign * sqrt(weight / |amps|^2) * amps, if that root is in Q(sqrt 2)
    root = _sqrt(br.weight / br.residual.norm2)
    derived = None if root is None else [(root[0] * br.sign * x, root[1] * br.sign * x) for x in amps]
    dot = (sum(a * x for (a, _), x in zip(ref, amps)), sum(b * x for (_, b), x in zip(ref, amps)))
    phase = br.sign * _sign(dot) or None
    exact = derived == ref
    phase_ok = phase is not None and derived == [(phase * a, phase * b) for a, b in ref]
    return BranchComparison(br.bell, br.empty, exact, phase_ok, phase)


def verify_expansion(pair: str) -> ExpansionReport:
    """Compare the expansion of :data:`TOTAL_STATE` over ``pair`` (``A1``
    or ``2B``) with the reference branch table.

    Each branch is checked two ways: exact amplitude match (including the
    reference's overall sign) and match up to one phase factor per branch,
    which is the physically meaningful criterion.  The extracted phase is
    recorded either way.  Both checks are exact equalities in Q(sqrt 2).
    """
    if pair not in PAIR_SLOTS:
        raise HardyLabError(f"unknown expansion pair {pair!r} (want A1 or 2B)")
    expansion = bell_expansion(pair)
    ref_slots, ref_table = load_reference_table(pair)
    if ref_slots != expansion.residual_slots:
        raise HardyLabError(
            f"reference residual slots {ref_slots} != derived {expansion.residual_slots}"
        )
    comparisons = tuple(_compare(br, ref_table[br.bell]) for br in expansion.branches)
    return ExpansionReport(
        expansion.measured_slots,
        comparisons,
        all(c.exact_match for c in comparisons),
        all(c.phase_match for c in comparisons),
    )
