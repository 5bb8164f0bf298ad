"""Fuzz of ``hardylab lhv --source file:PATH``.

Random table documents (wrong keys, ragged or non-list grids, bools,
strings, huge ints, ``{num, den}`` with ``den <= 0``, near-valid tables)
are crossed with ``--tolerance`` strings, valid and not.  Every run must
end in a validated report (exit 0) or a one-line usage error (exit 2),
never in a traceback.  The library must accept exactly the documents the
CLI accepts.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from hardylab.cli import main
from hardylab.core import HardyLabError
from hardylab.lhv import claimed_hardy_table, feasibility, rationalize_table, validate_certificate
from hardylab.observables import CONTEXT_KEYS, Interpretation, quantum_probability_table
from hardylab.protocol import BellIndex

#: Exact tables that pass as they are: two Hardy completions, two quantum
#: tables, and a mixture with thirds (floats that rationalize exactly).
def fraction_cells(exact) -> dict:
    """An exact table as a dict of Fraction cells."""
    return {key: [[Fraction(exact.n[key, a, b], exact.den) for b in (0, 1)] for a in (0, 1)]
            for key in CONTEXT_KEYS}


VALID_TABLES = [
    claimed_hardy_table(),
    claimed_hardy_table(Fraction(1, 8)),
    fraction_cells(quantum_probability_table(BellIndex.PSI_MINUS, BellIndex.PSI_MINUS,
                                             Interpretation.FIXED_BASIS)),
    fraction_cells(quantum_probability_table(BellIndex.PHI_PLUS, BellIndex.PSI_MINUS,
                                             Interpretation.COLLAPSED_STATE)),
    {key: [[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), 0]] for key in CONTEXT_KEYS},
]

JUNK_CELLS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-3, 3),
    st.sampled_from([2**64, -(10**300), 10**4000]),
    st.floats(),
    st.fixed_dictionaries({"num": st.integers(-2, 2), "den": st.integers(-2, 0)}),
    st.fixed_dictionaries({"num": st.integers(0, 3), "den": st.integers(1, 4)}),
    st.dictionaries(st.sampled_from(["num", "den", "x"]),
                    st.integers(-2, 2) | st.booleans() | st.floats(), max_size=3),
    st.lists(st.integers(0, 1), max_size=3),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from([*CONTEXT_KEYS, "x"]) | st.text(max_size=3), inner,
                      max_size=5),
    max_leaves=20,
)

RAW_BYTES = st.sampled_from(
    [b"", b"{", b"null", b"[1, 2]", b"9" * 5000, b'{"d1d2": %s}' % (b"[" * 5000 + b"]" * 5000),
     b"\xff\xfe{}", b'{"d1d2": [[0.5, 0.5], [0, 0]]}']
)

TOLERANCES = st.one_of(
    st.none(),
    st.sampled_from(["nan", "inf", "-inf", "1e-400", "1e400", "-0", "0", "-1", "junk", "",
                     "1e-12", "1e-9", "0.07", "0.5", "3"]),
    st.floats().map(repr),
)


def encode(value: Fraction, how: str):
    if how == "float":
        return float(value)
    if how == "int" and value.denominator == 1:
        return int(value)
    return {"num": value.numerator, "den": value.denominator}


@st.composite
def near_valid_documents(draw) -> str:
    """A valid table, half the time with up to two junk cells and one
    structural change."""
    table = draw(st.sampled_from(VALID_TABLES))
    how = st.sampled_from(["float", "fraction", "int"])
    doc = {key: [[encode(Fraction(c), draw(how)) for c in row] for row in grid]
           for key, grid in table.items()}
    if draw(st.booleans()):
        return json.dumps(doc)
    keys = st.sampled_from(CONTEXT_KEYS)
    for _ in range(draw(st.integers(0, 2))):
        doc[draw(keys)][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(JUNK_CELLS)
    key = draw(keys)
    change = draw(st.sampled_from(["none", "drop", "extra", "ragged", "grid"]))
    if change == "drop":
        del doc[key]
    elif change == "extra":
        doc[draw(st.text(max_size=5))] = [[1, 0], [0, 0]]
    elif change == "ragged":
        doc[key][draw(st.integers(0, 1))].append(0)
    elif change == "grid":
        doc[key] = draw(JSON_VALUES)
    return json.dumps(doc)


DOCUMENTS = st.one_of(
    near_valid_documents().map(str.encode),
    st.one_of(
        JSON_VALUES.map(json.dumps).map(str.encode),
        st.dictionaries(st.sampled_from(CONTEXT_KEYS),
                        st.lists(st.lists(JUNK_CELLS, max_size=3), max_size=3))
        .map(json.dumps).map(str.encode),
        RAW_BYTES,
    ),
)


def run_lhv(tmp_path_factory, document: bytes, tol: str | None):
    """Exit code, stdout and stderr of ``lhv --source file:`` on ``document``."""
    path = tmp_path_factory.getbasetemp() / "fuzzed_table.json"
    path.write_bytes(document)
    argv = ["lhv", "--source", f"file:{path}"]
    if tol is not None:
        argv.append(f"--tolerance={tol}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out, err


@settings(max_examples=300, deadline=None)
@given(document=DOCUMENTS, tol=TOLERANCES)
def test_a_table_file_gives_a_report_or_one_usage_error(tmp_path_factory, document, tol):
    code, out, err = run_lhv(tmp_path_factory, document, tol)
    event(f"exit {code}")
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["results"]["validated"] is True
    else:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


#: A valid certificate, re-checked against every fuzzed document.
CERTIFICATE = feasibility(claimed_hardy_table())


@settings(max_examples=300, deadline=None)
@given(document=DOCUMENTS, tol=st.sampled_from([1e-12, 1e-9, 0.07]))
def test_the_library_accepts_exactly_the_files_the_cli_accepts(tmp_path_factory, document, tol):
    try:
        table = json.loads(document)
    except (ValueError, RecursionError):
        assume(False)
    try:
        rationalize_table(table, tol)
        accepted = True
    except HardyLabError:
        accepted = False
    code, _, _ = run_lhv(tmp_path_factory, document, repr(tol))
    event(f"exit {code}")
    assert accepted == (code == 0)
    assert validate_certificate(table, CERTIFICATE) in (True, False)
