"""Byte-for-byte golden outputs of the CLI.

Each file under ``tests/golden/`` holds the exact stdout of one ``cli.main``
run.  A refactor that changes any byte of a report fails here.  To
regenerate the files after an intended schema change, run from the repo
root::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from hardylab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

#: golden file stem -> argv; paths in argv are relative to the repo root
CASES = {
    "audit_all_fixed": ["audit", "--all", "--interp", "fixed"],
    "audit_all_collapsed": ["audit", "--all", "--interp", "collapsed"],
    "audit_pair_collapsed": ["audit", "--d1", "phi+", "--d2", "psi-", "--interp", "collapsed"],
    "expand_A1": ["expand", "--slots", "A1"],
    "expand_2B": ["expand", "--slots", "2B"],
    "lhv_paper_claims": ["lhv", "--source", "paper-claims"],
    "lhv_quantum_collapsed": ["lhv", "--source", "quantum:psi-,psi-,collapsed"],
    "lhv_file": ["lhv", "--source", "file:tests/golden/table.json"],
    "lhv_file_feasible": ["lhv", "--source", "file:tests/golden/table_feasible.json"],
    "sample_u1u2_collapsed": [
        "sample", "--context", "u1u2", "--interp", "collapsed",
        "--shots", "1000", "--seed", "7",
    ],
    # 45 full sampler blocks of 2**16 shots plus a ragged tail
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


def test_tolerance_override_does_not_leak_between_runs(capsys):
    argv = CASES["audit_all_collapsed"]
    golden = (GOLDEN / "audit_all_collapsed.out").read_text(encoding="utf-8")
    first = run(capsys, argv)
    loose = run(capsys, [*argv, "--tolerance", "1e-9"])
    third = run(capsys, argv)
    assert first == (0, golden)
    assert loose[0] == 0 and '"tolerance": 1e-09' in loose[1]
    assert third == (0, golden)


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    for stem, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        (GOLDEN / f"{stem}.out").write_text(buf.getvalue(), encoding="utf-8")
