"""Byte-for-byte golden outputs of the CLI.

Each file under ``tests/golden/`` holds the exact stdout of one ``cli.main``
run.  A refactor that changes any byte of a report fails here.  To
regenerate the named files after an intended change, or every file when
no stem is given, run from the repo root::

    PYTHONPATH=src python tests/test_golden.py [STEM ...]

An unknown stem is refused with exit code 2, and no file is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hardylab.cli import main
from hardylab.lhv import feasibility, rationalize_table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

#: golden file stem -> argv; paths in argv are relative to the repo root
CASES = {
    "audit_all_fixed": ["audit", "--all", "--interp", "fixed"],
    "audit_all_collapsed": ["audit", "--all", "--interp", "collapsed"],
    "audit_pair_collapsed": ["audit", "--d1", "phi+", "--d2", "psi-", "--interp", "collapsed"],
    # c_d2u1 = 1/2, so the deduction replay halts at step 3
    "audit_pair_fixed": ["audit", "--d1", "psi-", "--d2", "psi-", "--interp", "fixed"],
    # every verdict passes, c_d2u1 = 1/2 sits exactly on the margin, and the
    # replay halts at step 1: 1/16 is not > 0.5
    "audit_pair_fixed_margin": [
        "audit", "--d1", "psi-", "--d2", "psi-", "--interp", "fixed", "--tolerance", "0.5",
    ],
    "expand_A1": ["expand", "--slots", "A1"],
    "expand_2B": ["expand", "--slots", "2B"],
    "expand_2B_table": ["expand", "--slots", "2B", "--format", "table"],
    "lhv_paper_claims": ["lhv", "--source", "paper-claims"],
    "lhv_quantum_collapsed": ["lhv", "--source", "quantum:psi-,psi-,collapsed"],
    "lhv_quantum_fixed": ["lhv", "--source", "quantum:psi-,psi-,fixed"],
    "lhv_file": ["lhv", "--source", "file:tests/golden/table.json"],
    "lhv_file_feasible": ["lhv", "--source", "file:tests/golden/table_feasible.json"],
    # a noisy PR box (visibility 3/4): no-signalling, with CHSH = 3
    "lhv_file_chsh": ["lhv", "--source", "file:tests/golden/table_chsh.json"],
    # float cells of thirds and sevenths (a product table): each lies well
    # inside the tolerance of its 21sts
    "lhv_file_non_dyadic": ["lhv", "--source", "file:tests/golden/table_non_dyadic.json"],
    # a degenerate context: one projector measured twice
    "sample_d1d1": ["sample", "--context", "d1d1", "--shots", "1000", "--seed", "7"],
    "sample_u1u2_collapsed": [
        "sample", "--context", "u1u2", "--interp", "collapsed",
        "--shots", "1000", "--seed", "7",
    ],
    # 22 full sampler blocks of 2**17 shots plus a ragged tail
    "sample_d1u2_multiblock": [
        "sample", "--context", "d1u2", "--shots", "3000001", "--seed", "20021993",
    ],
}


def run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    code, out = run(capsys, CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("lhv_*.out")), ids=lambda path: path.stem)
def test_a_printed_certificate_is_the_decision_of_its_printed_table(path):
    # what a check of a saved report does: decide the printed exact table
    # again, and print its certificate for that table
    results = json.loads(path.read_text(encoding="utf-8"))["results"]
    exact = rationalize_table(results["table"])
    assert feasibility(exact).to_jsonable(exact) == results["certificate"]


def test_tolerance_override_does_not_leak_between_runs(capsys):
    argv = CASES["audit_all_collapsed"]
    golden = (GOLDEN / "audit_all_collapsed.out").read_text(encoding="utf-8")
    first = run(capsys, argv)
    loose = run(capsys, [*argv, "--tolerance", "1e-9"])
    third = run(capsys, argv)
    assert first == (0, golden)
    assert loose[0] == 0 and '"tolerance": 1e-09' in loose[1]
    assert third == (0, golden)


@pytest.mark.parametrize("hashseed", ["0", "12345"])
@pytest.mark.parametrize("interp", ["fixed", "collapsed"])
def test_a_cold_sweep_is_independent_of_the_hash_seed(interp, hashseed):
    # the sweep weighs operators through a dict keyed on operator identity
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed}
    proc = subprocess.run(
        [sys.executable, "-m", "hardylab", *CASES[f"audit_all_{interp}"]],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"audit_all_{interp}.out").read_bytes()


def test_regeneration_refuses_an_unknown_stem():
    before = {path: path.read_bytes() for path in GOLDEN.iterdir()}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, __file__, "lhv_file", "no_such_stem"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown golden stem(s): no_such_stem\n"
    assert {path: path.read_bytes() for path in GOLDEN.iterdir()} == before


if __name__ == "__main__":
    import contextlib
    import io

    stems = sys.argv[1:] or list(CASES)
    unknown = [stem for stem in stems if stem not in CASES]
    if unknown:
        print(f"error: unknown golden stem(s): {', '.join(unknown)}", file=sys.stderr)
        sys.exit(2)
    os.chdir(ROOT)
    for stem in stems:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(CASES[stem]) == 0, CASES[stem]
        (GOLDEN / f"{stem}.out").write_text(buf.getvalue(), encoding="utf-8")
