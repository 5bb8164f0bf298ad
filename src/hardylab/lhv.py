"""Local-hidden-variable side: deduction replay and exact feasibility.

A local deterministic model assigns a fixed 0/1 value to each of the four
observables; a local model in general is a probability mixture over the
16 such assignments.  :func:`feasibility` decides, on integer cells over
one denominator (:class:`ExactTable`), whether a four-context probability
table is such a mixture, and always emits a machine-checkable certificate:

* feasible   -> an explicit weight vector reproducing every cell exactly,
  built in closed form by gluing two triangles over a chord (Fine's proof),
  16 int weights over the table's denominator (:class:`LhvModel`);
* infeasible -> a separating linear functional (int coefficients)
  that is nonnegative on every deterministic assignment but strictly
  negative on the table, named by what it shows: the human-readable
  deduction chain when the table exhibits the Hardy pattern, else the
  signalling marginal, else the violated CHSH inequality (Fine's theorem).
  A report reads the chain, observable, gap or CHSH value off the table.
  The name is checked too: :func:`validate_certificate` accepts a witness
  only if its functional is one its kind names on that table.

Stochastic local models are mixtures of deterministic ones, so deciding
over the 16-vertex polytope loses no generality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .core import CONTEXT_KEYS, TARGET_RATIOS, TOLERANCE, Frozen, HardyClaimSet, HardyLabError
from .core import check_tolerance, within_tolerance

#: Denominator bound used when converting float tables to exact rationals.
MAX_DENOMINATOR = 2**20

#: The observables in the order an assignment lists their values.
_OBSERVABLES = ("d1", "d2", "u1", "u2")

#: One deterministic assignment: values (d1, d2, u1, u2), each 0 or 1.
Assignment = tuple[int, int, int, int]

ASSIGNMENTS: tuple[Assignment, ...] = tuple(product((0, 1), repeat=4))

#: One table cell: (context key, outcome of first, outcome of second).
Cell = tuple[str, int, int]

CELLS: tuple[Cell, ...] = tuple(
    (key, a, b) for key in CONTEXT_KEYS for a in (0, 1) for b in (0, 1)
)

#: Each cell's position in CELLS, where an :class:`ExactTable` holds it.
_AT: Mapping[Cell, int] = {cell: i for i, cell in enumerate(CELLS)}
_CONTEXTS = frozenset(CONTEXT_KEYS)  # a table's keys, with no set built per call

Table = dict[str, Sequence[Sequence]]  # as :func:`rationalize_table` accepts it


class RationalizationError(HardyLabError):
    """A float entry does not sit near a small-denominator rational."""


class MalformedTableError(HardyLabError):
    """A probability table fails its shape or normalization contract."""


class ExactTable(Frozen):
    """A validated table, or :class:`MalformedTableError`: ``n`` is the tuple
    of the 16 cells' numerators >= 0, in :data:`CELLS` order, over ``den``,
    the lcm of the reduced cell denominators, and each context sums to
    ``den``."""

    def __init__(self, numerators: Sequence[int], den: int) -> None:
        ints = [*numerators, den] if isinstance(numerators, (list, tuple)) else []
        if len(ints) != 17 or set(map(type, ints)) != {int} or den <= 0 or math.gcd(*ints) > 1:
            raise MalformedTableError("an exact table is 16 int numerators over their lcm den")
        a, b, c, d, e, f, g, h, i, j, k, m, p, q, r, s, _ = ints  # each context, 4 additions
        if min(ints) < 0 or not den == a+b+c+d == e+f+g+h == i+j+k+m == p+q+r+s:
            for key, i in zip(CONTEXT_KEYS, range(0, 16, 4)):  # name the first that fails
                if min(ints[i : i + 4]) < 0:  # no value in the message: it may be too long to print
                    raise MalformedTableError(f"negative entry in context {key!r}")
                if sum(ints[i : i + 4]) != den:
                    raise MalformedTableError(f"context {key!r} does not sum to 1")
        object.__setattr__(self, "n", tuple(numerators))
        object.__setattr__(self, "den", den)

    def to_jsonable(self) -> dict:
        return {key: [[rational_json(Fraction(self.n[_AT[key, a, b]], self.den)) for b in (0, 1)]
                      for a in (0, 1)] for key in CONTEXT_KEYS}


#: Cell -> the indices in ASSIGNMENTS of the 4 assignments that hit it, built
#: once for the validator, which sums 4 weights per cell and adds each
#: coefficient into the sums of the 4 assignments its cell hits.
_HITS: Mapping[Cell, tuple[int, ...]] = {
    (key, a, b): tuple(i for i, x in enumerate(ASSIGNMENTS) if (
        x[_OBSERVABLES.index(key[:2])], x[_OBSERVABLES.index(key[2:])]) == (a, b))
    for key, a, b in CELLS
}


def _nearest_rational(n: int, d: int) -> tuple[int, int]:
    """The reduced ``(p, q)`` of ``Fraction(n, d).limit_denominator(MAX_DENOMINATOR)``
    for ``(n, d)``, a finite float's ``as_integer_ratio()`` (reduced, ``d > 0``).

    The continued-fraction steps are the stdlib method's.  ``n/d`` (over
    ``den``) lies between the last convergent ``p1/q1`` within the bound
    and the semiconvergent ``(p0 + k*p1)/q``, ``q = q0 + k*q1``, with the
    largest ``q`` within it.  The two are ``1/(q1*q)`` apart, and ``p1/q1``
    is ``d/(q1*den)`` from ``n/d``.  So ``p1/q1`` is the nearer one, or
    ties, iff ``2*d*q <= den``; a tie goes to it, as in the stdlib.  Both
    candidates are reduced, as every (semi)convergent is.
    """
    if d <= MAX_DENOMINATOR:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (MAX_DENOMINATOR - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def rational_json(value: Fraction) -> dict:
    """An exact rational as reports write it: ``{"num": int, "den": int}``."""
    return {"num": value.numerator, "den": value.denominator}


def rationalize_table(table: Table, tol: float = TOLERANCE) -> ExactTable:
    """Convert a table to its :class:`ExactTable`, refusing to round silently.

    The one definition of a table: a dict of exactly the four
    ``CONTEXT_KEYS``, each a 2x2 grid of lists or tuples.  A cell is a
    Fraction, an int (not a bool), ``{"num": int, "den": int}`` with
    ``den > 0``, or a finite float whose exact value lies within ``tol`` of
    a rational with denominator <= :data:`MAX_DENOMINATOR` (decided by
    :func:`~hardylab.core.within_tolerance`).  Cells must be >= 0 and each
    context must sum to 1 exactly, in integers.  Anything else raises a
    :class:`HardyLabError`.  An :class:`ExactTable` is returned as is.
    """
    tol_ratio = check_tolerance(tol).as_integer_ratio()
    if isinstance(table, ExactTable):
        return table
    if not isinstance(table, dict) or table.keys() != _CONTEXTS:
        raise MalformedTableError(f"a table is a dict of exactly the contexts {CONTEXT_KEYS}")
    nums, dens = [], []  # each cell's reduced numerator and denominator, in CELLS order
    for key in CONTEXT_KEYS:
        grid = table[key]
        if not (isinstance(grid, (list, tuple)) and len(grid) == 2) or not (
            isinstance(grid[0], (list, tuple)) and isinstance(grid[1], (list, tuple))
        ) or len(grid[0]) != 2 or len(grid[1]) != 2:
            raise MalformedTableError(f"context {key!r} is not a 2x2 grid of lists")
        for value in (*grid[0], *grid[1]):
            # floats first: a float is not a Fraction only by the slow ABC check
            if isinstance(value, float) and math.isfinite(value):
                ratio = value.as_integer_ratio()
                p, q = _nearest_rational(*ratio)
                if not within_tolerance(ratio, (p, q), tol_ratio):
                    raise RationalizationError(
                        f"{value!r} in context {key!r} is not within {tol} of a "
                        f"rational with denominator <= {MAX_DENOMINATOR}"
                    )
            elif isinstance(value, Fraction):
                p, q = value.as_integer_ratio()
            elif type(value) is int:
                p, q = value, 1
            elif type(value) is dict and value.keys() == {"num", "den"} and (
                type(value["num"]) is type(value["den"]) is int and value["den"] > 0
            ):
                g = math.gcd(value["num"], value["den"])
                p, q = value["num"] // g, value["den"] // g
            else:
                # named by place and type: a cell's repr may hold an int
                # too long for str(), which would raise in the message
                _, a, b = CELLS[len(nums)]
                raise MalformedTableError(
                    f"bad cell [{a}][{b}] in context {key!r}: a {type(value).__name__} "
                    "(want a Fraction, an int, a finite float, or {num, den} with den > 0)"
                )
            nums.append(p)
            dens.append(q)
    den = math.lcm(*dens)
    return ExactTable([p * (den // q) for p, q in zip(nums, dens)], den)


# --- deduction replay -----------------------------------------------------


def _shown(value):
    """A value as a report prints it: its float, unless a nonzero value
    underflows to 0.0, which is printed as the exact Fraction."""
    f = float(value)
    return f if f or not value else value


class DeductionStep(NamedTuple):
    index: int
    name: str
    fired: bool
    detail: str

    def to_jsonable(self) -> dict:
        return {
            "step": self.index,
            "name": self.name,
            "fired": self.fired,
            "detail": self.detail,
        }


class DeductionTrace(NamedTuple):
    steps: tuple[DeductionStep, ...]
    contradiction: bool
    halted_at: int | None

    def to_jsonable(self) -> dict:
        return {
            "steps": [s.to_jsonable() for s in self.steps],
            "contradiction": self.contradiction,
            "halted_at": self.halted_at,
        }


#: Hardy's four steps in order: each rule's name, its premises (the claim
#: each tests, with the detail printed when it fails) and the detail printed
#: when it fires.  Details name claims as fields.
_RULES = (
    ("U2 is an element of reality", (
        ("p_joint", "joint D1=D2=1 run has probability {p_joint}; no run to reason about"),
        ("c_d1u2", "P(U2=1|D1=1) = {c_d1u2} is not a certainty"),
    ), "a D1=D2=1 run exists (probability {p_joint}) and P(U2=1|D1=1) = 1, "
       "so U2=1 is predetermined for it"),
    ("locality transfer", (),
     "the distant choice of measurement cannot change the predetermined U2"),
    ("U1 is an element of reality",
     (("c_d2u1", "P(U1=1|D2=1) = {c_d2u1} is not a certainty"),),
     "the same run has D2=1 and P(U1=1|D2=1) = 1, so U1=1 is predetermined"),
    ("joint contradiction",
     (("p_u1u2",
       "the run would give U1=U2=1, but P(U1=1,U2=1) = {p_u1u2} does not forbid that outcome"),),
     "the run would give U1=U2=1, yet P(U1=1,U2=1) = 0: "
     "the local model contradicts the statistics"),
)


def _certain(claims: HardyClaimSet, key: str, tol: float) -> bool:
    """Whether a claim lies within ``tol`` of its target; nan or inf does not."""
    value = getattr(claims, key)
    return abs(value) < math.inf and within_tolerance(
        Fraction(value).as_integer_ratio(), TARGET_RATIOS[key], tol.as_integer_ratio())


def replay_deductions(claims: HardyClaimSet, tol: float = TOLERANCE) -> DeductionTrace:
    """Replay the element-of-reality argument on a set of claimed values.

    The rules fire only on certainties: given a run (``p_joint > tol``),
    the conditionals must equal 1 and the final joint probability 0, within
    ``tol`` of the exact claim (:func:`~hardylab.core.within_tolerance`).
    The trace records each step; if a premise fails, later steps are not
    reached and ``halted_at`` names the first rule that could not fire.
    """
    check_tolerance(tol)
    shown = {key: _shown(value) for key, value in claims._asdict().items()}
    steps, halted = [], None
    for index, (name, premises, fires) in enumerate(_RULES, 1):
        if halted:
            steps.append(DeductionStep(index, name, False, "not reached"))
            continue
        detail = fires
        for key, failure in premises:
            if not (claims.p_joint > tol if key == "p_joint" else _certain(claims, key, tol)):
                detail, halted = failure, index
                break
        steps.append(DeductionStep(index, name, not halted, detail.format_map(shown)))
    return DeductionTrace(tuple(steps), halted is None, halted)


# --- certificates ---------------------------------------------------------


class LhvModel(Frozen):
    """A mixture of deterministic assignments, or :class:`HardyLabError`:
    ``weights`` is the tuple of the 16 assignments' numerators >= 0, in
    :data:`ASSIGNMENTS` order, over ``den`` > 0, and they sum to ``den``."""

    def __init__(self, numerators: Sequence[int], den: int) -> None:
        ints = [*numerators, den] if isinstance(numerators, (list, tuple)) else []
        if len(ints) != 17 or set(map(type, ints)) != {int} or den <= 0:
            raise HardyLabError("a model is 16 int weights over a den > 0")
        if min(ints) < 0:
            raise HardyLabError("model weights must be nonnegative")
        if sum(numerators) != den:
            raise HardyLabError("model weights must sum to exactly 1")
        object.__setattr__(self, "weights", tuple(numerators))
        object.__setattr__(self, "den", den)

    def to_jsonable(self) -> dict:
        return {
            "weights": [
                {
                    "assignment": dict(zip(_OBSERVABLES, a)),
                    "weight": rational_json(Fraction(w, self.den)),
                }
                for a, w in zip(ASSIGNMENTS, self.weights)
                if w
            ]
        }


class InfeasibilityWitness(NamedTuple):
    """Separating functional, named by the fact that makes it one.

    ``functional`` maps table cells to int coefficients f such that
    sum(f * cell_value) < 0 for the rejected table while
    sum(f * [assignment hits cell]) >= 0 for all 16 assignments; no
    nonnegative mixture can therefore reproduce the table.  ``kind`` is

    * ``deduction-chain``: Hardy's functional on a table showing the Hardy
      pattern, reported with the replayed deduction ``chain``;
    * ``no-signalling``: +-(P(X=1) in one context - P(X=1) in the other)
      for the ``observable`` X, which is 0 on every assignment; ``gap``,
      minus its value on the table, is the gap between the two marginals;
    * ``chsh-facet``: Hardy's functional under a relabelling of settings
      and outcomes, on a no-signalling table; ``chsh``, 2 - 4 times its
      value on the table, is the violated CHSH value (> 2).

    The witness holds only these two: a report reads ``chain``,
    ``observable``, ``gap`` and ``chsh`` off the table (:meth:`to_jsonable`).
    """

    kind: str
    functional: Mapping[Cell, int]

    def to_jsonable(self, table: Table) -> dict:
        """The witness as a report prints it, with the fields its kind adds
        read off ``table``, the table it was validated on, rationalized."""
        exact = rationalize_table(table)
        value = Fraction(_value(self.functional, exact.n), exact.den)
        payload = {
            "kind": self.kind,
            "functional": [
                {
                    "context": key,
                    "first": a,
                    "second": b,
                    "coefficient": rational_json(c),
                }
                for (key, a, b), c in sorted(self.functional.items())
            ],
        }
        if self.kind == "deduction-chain":
            payload["chain"] = [s.to_jsonable() for s in _hardy_chain(exact)]
        elif self.kind == "no-signalling":
            cells = self.functional.keys()
            payload["observable"] = next(x for x, one, two in _MARGINALS if cells == {*one, *two})
            payload["gap"] = rational_json(-value)
        elif self.kind == "chsh-facet":
            payload["chsh"] = rational_json(2 - 4 * value)
        return payload


class LhvCertificate(Frozen):
    def __init__(
        self,
        verdict: str,  # "feasible" | "infeasible"
        model: LhvModel | None = None,
        witness: InfeasibilityWitness | None = None,
    ) -> None:
        if verdict not in ("feasible", "infeasible"):
            raise HardyLabError("the verdict must be 'feasible' or 'infeasible'")
        if (verdict == "feasible") != isinstance(model, LhvModel) or (
            verdict == "infeasible"
        ) != isinstance(witness, InfeasibilityWitness):
            raise HardyLabError("certificate must carry exactly the matching payload")
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "witness", witness)

    def to_jsonable(self, table: Table) -> dict:
        """The certificate as a report prints it for ``table``, the table it
        was validated on (see :meth:`InfeasibilityWitness.to_jsonable`)."""
        out: dict = {"verdict": self.verdict}
        if self.model is not None:
            out["model"] = self.model.to_jsonable()
        if self.witness is not None:
            out["witness"] = self.witness.to_jsonable(table)
        return out


# --- local models by chord gluing -----------------------------------------


def _local_model(n: tuple[int, ...], den: int) -> list[int] | None:
    """A local model of a no-signalling table, or None if none exists.

    Fine's construction (A. Fine, PRL 48, 291 (1982)): glue two triangles
    over a chord, as in N. N. Vorob'ev, Theory Probab. Appl. 7, 147 (1962).
    ``n`` and ``den`` are the table's :class:`ExactTable` form, cells in
    :data:`CELLS` order.  The chord is t = #(d1=1,u1=1), which no context
    measures.  With p = #(d1=1) and r = #(u1=1), each triangle (d1, u1, z),
    z = d2 or u2, with a = #(d1=1,z=1), b = #(u1=1,z=1) and c = #(z=1), has
    one free cell s = #(1,1,1), and its cells are >= 0 iff
    max(0, a+b-c, t+a-p, t+b-r) <= s <= min(a, b, t, den-p-r-c+a+b+t).
    On a no-signalling table the last upper bound never binds once
    t >= p+r-den and t >= p+r+c-a-b-den (the loop's comment has the
    argument), so the check reads min(a, b, t).
    Each lower-upper pair bounds t from below, from above, or not at all,
    so ``t`` below is the least chord, and if it fails no chord works.
    Each s takes its largest lower bound.  On each chord cell the two
    triangles' z = 1 weights are coupled monotonically, so at most 12 of
    the 16 weights are nonzero.  They are returned as ints over ``den``, in
    :data:`ASSIGNMENTS` order.  A chord exists iff the table meets all 8
    CHSH inequalities (Fine's theorem).
    """
    p = n[_AT["d1d2", 1, 0]] + n[_AT["d1d2", 1, 1]]
    r = n[_AT["u1d2", 1, 0]] + n[_AT["u1d2", 1, 1]]
    triangles = [
        (n[_AT["d1" + z, 1, 1]], n[_AT["u1" + z, 1, 1]],
         n[_AT["d1" + z, 0, 1]] + n[_AT["d1" + z, 1, 1]])
        for z in ("d2", "u2")
    ]
    t = max(0, p + r - den, *(max(a + b - c, p + r + c - a - b - den) for a, b, c in triangles))
    sides = []
    for a, b, c in triangles:
        s = max(0, a + b - c, t + a - p, t + b - r)
        # the cell (0,0,0)'s bound s <= den - p - r - c + a + b + t never binds:
        # 0 is below it, because t >= p + r + c - a - b - den;
        # a + b - c is below it, because t >= p + r - den;
        # t + a - p is below it iff r + c - b <= den: den * P(u1=1 or z=1);
        # t + b - r is below it iff p + c - a <= den: den * P(d1=1 or z=1).
        if s > min(a, b, t):
            return None
        # each chord cell (d1, u1) -> its weight with z = 1
        sides.append({(1, 1): s, (1, 0): a - s, (0, 1): b - s, (0, 0): c - a - b + s})
    chord = {(1, 1): t, (1, 0): p - t, (0, 1): r - t, (0, 0): den - p - r + t}
    weights = {}
    for (d1, u1), m in chord.items():
        on_d2, on_u2 = sides[0][d1, u1], sides[1][d1, u1]
        both = min(on_d2, on_u2)
        weights[d1, 1, u1, 1] = both
        weights[d1, 1, u1, 0] = on_d2 - both
        weights[d1, 0, u1, 1] = on_u2 - both
        weights[d1, 0, u1, 0] = m - on_d2 - on_u2 + both
    return [weights[a] for a in ASSIGNMENTS]


# --- feasibility decision -------------------------------------------------

#: Hardy's functional -P(D1=1,D2=1) + P(D1=1,U2=0) + P(U1=0,D2=1) +
#: P(U1=1,U2=1): >= 0 on every assignment (L. Hardy, PRL 71, 1665 (1993)).
#: Its negative cell comes first.
_HARDY_FUNCTIONAL: Mapping[Cell, int] = MappingProxyType({
    ("d1d2", 1, 1): -1,
    ("d1u2", 1, 0): 1,
    ("u1d2", 0, 1): 1,
    ("u1u2", 1, 1): 1,
})

#: Each observable, with the two cells that read it as 1 in each of the
#: two contexts that measure it.
_MARGINALS: tuple[tuple[str, tuple[Cell, Cell], tuple[Cell, Cell]], ...] = (
    ("d1", (("d1d2", 1, 0), ("d1d2", 1, 1)), (("d1u2", 1, 0), ("d1u2", 1, 1))),
    ("u1", (("u1d2", 1, 0), ("u1d2", 1, 1)), (("u1u2", 1, 0), ("u1u2", 1, 1))),
    ("d2", (("d1d2", 0, 1), ("d1d2", 1, 1)), (("u1d2", 0, 1), ("u1d2", 1, 1))),
    ("u2", (("d1u2", 0, 1), ("d1u2", 1, 1)), (("u1u2", 0, 1), ("u1u2", 1, 1))),
)

#: Where in CELLS the 4 cells of each observable's :data:`_MARGINALS` and Hardy's 4 sit.
_MARGINALS_AT = tuple(tuple(_AT[cell] for cell in (*one, *two)) for _, one, two in _MARGINALS)
_HARDY_AT = tuple(_AT[cell] for cell in _HARDY_FUNCTIONAL)

_OTHER_SETTING = {"d1": "u1", "u1": "d1", "d2": "u2", "u2": "d2"}


@cache
def _chsh_facets() -> tuple[Mapping[Cell, int], ...]:
    """Hardy's functional under each of the 64 relabellings: either side's
    two settings swapped or not, times each observable's outcome flipped or
    not.  The identity comes first.

    A relabelling permutes the 16 assignments, so every image is >= 0 on
    all of them too.  On a no-signalling table each image equals
    (2 - CHSH) / 4 for one of the 8 CHSH expressions, so some value is < 0
    iff some CHSH value is > 2.  Built on first use, by a CHSH violator.
    """
    images = []
    for swap_1, swap_2, *flips in product((False, True), repeat=6):
        flip = dict(zip(_OBSERVABLES, flips))
        image = {}
        for (key, a, b), c in _HARDY_FUNCTIONAL.items():
            x, y = key[:2], key[2:]
            x = _OTHER_SETTING[x] if swap_1 else x
            y = _OTHER_SETTING[y] if swap_2 else y
            image[(x + y, a ^ flip[x], b ^ flip[y])] = c
        images.append(MappingProxyType(image))
    return tuple(images)


def _hardy_pattern(exact: ExactTable) -> bool:
    """Whether a table shows the Hardy pattern, read off
    :data:`_HARDY_FUNCTIONAL`: its negative cell P(D1=1,D2=1) is > 0 and
    its three positive cells are 0."""
    p, *zeros = map(exact.n.__getitem__, _HARDY_AT)
    return p > 0 and not any(zeros)


def _hardy_chain(exact: ExactTable) -> tuple[DeductionStep, ...]:
    """The replayed deduction of a table showing the Hardy pattern.  The
    pattern has p > 0 exactly, so the replay must fire: tol=0 covers p below
    the float tolerance (an int: a Fraction compares with it fast)."""
    claims = HardyClaimSet(Fraction(exact.n[_AT["d1d2", 1, 1]], exact.den), 1, 1, 0)
    return replay_deductions(claims, tol=0).steps


#: The 8 marginal differences, each observable's in :data:`_MARGINALS`
#: order with either sign: 0 on every assignment.
_MARGINAL_DIFFERENCES: tuple[Mapping[Cell, int], ...] = tuple(
    MappingProxyType(dict.fromkeys(first, s) | dict.fromkeys(second, -s))
    for _, first, second in _MARGINALS for s in (1, -1)
)


def _value(functional: Mapping[Cell, int], n: tuple[int, ...]) -> int:
    """A functional's value on the :class:`ExactTable` cells ``n``, times ``den``."""
    return sum(c * n[_AT[cell]] for cell, c in functional.items())


def _signalling_witness(n: tuple[int, ...]) -> Mapping[Cell, int] | None:
    """The first marginal difference < 0 on the :class:`ExactTable` cells
    ``n`` (the first observable whose two marginals differ, with the sign of
    that gap), the ``no-signalling`` witness, or None if there is none."""
    for k, (a, b, c, d) in enumerate(_MARGINALS_AT):
        if gap := n[a] + n[b] - n[c] - n[d]:
            return _MARGINAL_DIFFERENCES[2 * k + (gap > 0)]
    return None


def _facet_witness(n: tuple[int, ...]) -> Mapping[Cell, int]:
    """The relabelled Hardy functional of least value on the
    :class:`ExactTable` cells ``n``, the ``chsh-facet`` witness, whose CHSH
    value is the largest of the 8."""
    return min(_chsh_facets(), key=lambda f: _value(f, n))


def feasibility(table: Table) -> LhvCertificate:
    """Decide whether a table is a mixture of deterministic assignments.

    Takes any table :func:`rationalize_table` accepts, and raises what it
    raises on one it rejects.  The table is rationalized once at
    :data:`~hardylab.core.TOLERANCE` (a float table can go through
    :func:`rationalize_table` first for another tolerance), and the
    decision and the re-check both read its :class:`ExactTable`.

    One chain of four stages, each with its own certificate.  (1) A table
    showing the Hardy pattern (P(D1=1,D2=1) > 0 and the three zero cells)
    gets Hardy's functional, >= 0 on every assignment and < 0 on the table
    (L. Hardy, PRL 71, 1665 (1993)), as a ``deduction-chain`` witness.
    Stages 2-4: (2) a signalling table gets a ``no-signalling`` witness; (3)
    :func:`_local_model` glues a model by Fine's proof; (4) if no chord
    works, the table violates a CHSH inequality by Fine's theorem (A. Fine,
    PRL 48, 291 (1982)) and gets a ``chsh-facet`` witness.  Every
    certificate is re-checked in integers on the rationalized table before
    it is returned (the check of :func:`validate_certificate`).
    """
    exact = rationalize_table(table)
    weights = None
    if _hardy_pattern(exact):
        kind, functional = "deduction-chain", _HARDY_FUNCTIONAL
    else:
        kind, functional = "no-signalling", _signalling_witness(exact.n)
        if functional is None:
            weights = _local_model(exact.n, exact.den)
            if weights is None:
                kind, functional = "chsh-facet", _facet_witness(exact.n)
    if weights is None:
        cert = LhvCertificate("infeasible", witness=InfeasibilityWitness(kind, functional))
    else:
        cert = LhvCertificate("feasible", model=LhvModel(weights, exact.den))
    if not _validate_exact(exact, cert):
        raise HardyLabError("internal error: produced certificate failed validation")
    return cert


def validate_certificate(table: Table, cert: LhvCertificate) -> bool:
    """Re-check a certificate against a table, exactly.

    The table is rationalized as :func:`feasibility` does; a table that
    :func:`rationalize_table` rejects returns False, never an exception,
    and so does a coefficient that is not an int.  The check is in
    integers.  Feasible: the model, whose invariants its constructor
    holds, must reproduce every cell with exact rational equality.
    Infeasible: the functional must be keyed on table cells, strictly
    negative on the table and nonnegative on all 16 deterministic
    assignments (an all-zero or empty functional therefore never
    validates).  The witness must also be one its kind names on the table:
    a ``no-signalling`` functional is one of the 8 marginal differences; a
    ``chsh-facet`` one is Hardy's relabelled, on a no-signalling table; a
    ``deduction-chain`` one is Hardy's own, on a table showing the Hardy
    pattern.  So a scaled or extra-cell functional fails under every name.
    A witness holds no other field: what a report adds to it is read off
    the table (:meth:`InfeasibilityWitness.to_jsonable`).
    """
    try:
        exact = rationalize_table(table)
    except HardyLabError:
        return False
    return _validate_exact(exact, cert)


def _validate_exact(exact: ExactTable, cert: LhvCertificate) -> bool:
    """:func:`validate_certificate` on a rationalized table.

    The table, the model and the functional are all ints already, and each
    cell is hit by the 4 assignments :data:`_HITS` lists.  So each check
    compares integers: the 16 model cells, each its 4 assignments' weights
    summed, against the 16 table cells (both in :data:`CELLS` order) by
    cross-multiplying the two ``den``; the functional's value on the table
    against 0; and, each coefficient added into the 4 assignments its cell
    hits, all 16 sums against 0.
    Last, the functional must be one of those its kind names on the table.
    """
    if cert.verdict == "feasible":  # exact.n and _HITS both list the cells in CELLS order
        w, den, model_den = cert.model.weights, exact.den, cert.model.den
        return [(w[i] + w[j] + w[k] + w[l]) * den for i, j, k, l in _HITS.values()] == [
            num * model_den for num in exact.n]

    witness = cert.witness
    functional, sums = witness.functional, [0] * 16
    # {int}: at least one coefficient, and each an int, not a bool
    if not functional.keys() <= _HITS.keys() or set(map(type, functional.values())) != {int}:
        return False
    for cell, c in functional.items():
        for i in _HITS[cell]:
            sums[i] += c
    if _value(functional, exact.n) >= 0 or min(sums) < 0:
        return False
    # the functional must be one its kind names on the table
    if witness.kind == "no-signalling":
        named = _MARGINAL_DIFFERENCES
    elif witness.kind == "chsh-facet":
        named = () if _signalling_witness(exact.n) else _chsh_facets()
    elif witness.kind == "deduction-chain" and _hardy_pattern(exact):
        named = (_HARDY_FUNCTIONAL,)
    else:
        named = ()
    return functional in named


# --- the advertised-claims table -------------------------------------------


def claimed_hardy_table(p_joint: Fraction = Fraction(1, 16)) -> Table:
    """The completed table encoding the advertised Hardy conditions.

    The conditions themselves pin only four facts: P(D1=1,D2=1) = p_joint,
    P(U2=1|D1=1) = 1, P(U1=1|D2=1) = 1, and P(U1=1,U2=1) = 0.  The rest of
    the table is completed from the quantum marginals: P(D1=1) = P(D2=1)
    = 1/4 (uniform Bell branch weights) and P(U1=1) = P(U2=1) = 1/2
    (singlet single-qubit marginals).  The completion is consistent for
    any 0 < p_joint <= 1/4, and the infeasibility witness only ever uses
    the four pinned facts, so the completion cannot be the source of the
    contradiction.
    """
    p = Fraction(p_joint)
    if not 0 < p <= Fraction(1, 4):
        raise HardyLabError("p_joint must lie in (0, 1/4]")
    q = Fraction(1, 4)  # P(D1=1) = P(D2=1)
    h = Fraction(1, 2)  # P(U1=1) = P(U2=1)
    return {
        "d1d2": [[1 - 2 * q + p, q - p], [q - p, p]],
        "d1u2": [[1 - h, h - q], [Fraction(0), q]],
        "u1d2": [[1 - h, Fraction(0)], [h - q, q]],
        "u1u2": [[Fraction(0), h], [h, Fraction(0)]],
    }


#: Where each number in the completed table comes from, for reporting.
CLAIMED_TABLE_NOTES = {
    "pinned": {
        "P(D1=1,D2=1)": "the advertised joint probability",
        "P(U2=0|D1=1)": "0, from the advertised certainty P(U2=1|D1=1)=1",
        "P(U1=0|D2=1)": "0, from the advertised certainty P(U1=1|D2=1)=1",
        "P(U1=1,U2=1)": "0, as advertised",
    },
    "derived": {
        "P(D1=1), P(D2=1)": "1/4 each, from the uniform Bell branch weights",
        "P(U1=1), P(U2=1)": "1/2 each, from the singlet single-qubit marginals",
    },
}
