import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from hardylab import __version__, protocol
from hardylab.cli import main
from hardylab.lhv import ExactTable, claimed_hardy_table, rationalize_table
from hardylab.observables import Interpretation, quantum_probability_table
from hardylab.protocol import BellIndex

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

ENVELOPE_KEYS = {"command", "parameters", "results", "tool_version", "tolerance"}

#: A well-formed table file with its first cell left open.
TABLE_WITH_CELL = (
    '{"d1d2": [[%s, 0], [0, 0]], "d1u2": [[1, 0], [0, 0]], '
    '"u1d2": [[1, 0], [0, 0]], "u1u2": [[1, 0], [0, 0]]}'
)

GRID_MESSAGE = "context 'd1d2' is not a 2x2 grid of lists"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestExpandCommand:
    def test_alice_pair_exact(self, capsys):
        code, env = run_json(capsys, "expand", "--slots", "A1")
        assert code == 0
        assert set(env) == ENVELOPE_KEYS
        assert env["tool_version"] == __version__
        assert env["results"]["all_exact"] is True
        assert all(b["exact_match"] for b in env["results"]["branches"])

    def test_bob_pair_reports_phases(self, capsys):
        code, env = run_json(capsys, "expand", "--slots", "2B")
        assert code == 0
        branches = env["results"]["branches"]
        assert all(b["phase"] is not None for b in branches)
        assert env["results"]["all_up_to_phase"] is True

    def test_bad_slots_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--slots", "XY"])
        assert err.value.code == 2

    def test_a_branch_no_phase_matches_reports_no_phase(self, capsys, monkeypatch):
        real = protocol.load_reference_table

        def scaled(pair):
            slots, table = real(pair)
            table[BellIndex.PSI_PLUS][0] *= 4
            return slots, table

        monkeypatch.setattr(protocol, "load_reference_table", scaled)
        code, env = run_json(capsys, "expand", "--slots", "2B")
        golden = json.loads((GOLDEN / "expand_2B.out").read_text(encoding="utf-8"))
        assert code == 1
        assert env["results"]["all_up_to_phase"] is False
        assert env["results"]["all_exact"] is False
        branches = env["results"]["branches"]
        assert branches[1] == {
            "bell": "psi+", "empty": False, "exact_match": False,
            "phase_match": False, "phase": None,
        }
        expected = golden["results"]["branches"]
        assert branches[:1] + branches[2:] == expected[:1] + expected[2:]

    @staticmethod
    def edit_reference(monkeypatch, line: str) -> None:
        """Make ``expand`` read the shipped reference file with the 2B
        ``psi+`` branch line replaced by ``line``."""
        text = (
            resources.files("hardylab") / "data/reference_expansions.txt"
        ).read_text(encoding="utf-8")
        edited = text.replace("psi+ :  1 |++>, -1 |+->", line)
        assert edited != text

        class Files:
            def joinpath(self, _):
                return self

            def read_text(self, encoding):
                return edited

        monkeypatch.setattr(protocol, "resources", SimpleNamespace(files=lambda _: Files()))

    # the first splits a term in two, the second adds a zero term first
    @pytest.mark.parametrize("line", [
        "psi+ :  1/2 |++>, 1/2 |++>, -1 |+->",
        "psi+ :  0 |++>, 1 |++>, -1 |+->",
    ])
    def test_a_repeated_ket_is_an_error(self, capsys, monkeypatch, line):
        self.edit_reference(monkeypatch, line)
        assert main(["expand", "--slots", "2B"]) == 1
        assert capsys.readouterr() == ("", "error: ket |++> repeated in branch psi+\n")

    @pytest.mark.parametrize("coeff, message", [
        ("1/0", "zero denominator in coefficient token '1/0'"),
        ("1/0sqrt2", "zero denominator in coefficient token '1/0sqrt2'"),
        ("1/", "bad coefficient token '1/'"),
    ])
    def test_a_bad_coefficient_is_an_error(self, capsys, monkeypatch, coeff, message):
        self.edit_reference(monkeypatch, f"psi+ :  {coeff} |++>, -1 |+->")
        assert main(["expand", "--slots", "2B"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestAuditCommand:
    def test_single_pair_payload(self, capsys):
        code, env = run_json(
            capsys, "audit", "--d1", "psi-", "--d2", "psi-", "--interp", "fixed"
        )
        assert code == 0
        report = env["results"]["report"]
        assert report["measured"]["p_joint"] == pytest.approx(0.0625, abs=1e-12)
        assert report["measured"]["p_u1u2"] == 0.0
        assert "deductions_on_measured" in env["results"]

    def test_all_pairs_sum_to_one(self, capsys):
        code, env = run_json(capsys, "audit", "--all", "--interp", "collapsed")
        assert code == 0
        summary = env["results"]["summary"]
        assert summary["sum_p_joint"] == pytest.approx(1.0, abs=1e-12)
        assert len(env["results"]["reports"]) == 16

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first = run_cli(capsys, "audit", "--d1", "psi-", "--d2", "psi-", "--interp", "fixed")
        _, second = run_cli(capsys, "audit", "--d1", "psi-", "--d2", "psi-", "--interp", "fixed")
        assert first == second

    def test_bad_bell_label(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--d1", "omega", "--d2", "psi-", "--interp", "fixed"])
        assert err.value.code == 2


class TestLhvCommand:
    def test_claimed_source_is_infeasible_and_validated(self, capsys):
        code, env = run_json(capsys, "lhv", "--source", "paper-claims")
        assert code == 0
        results = env["results"]
        assert results["certificate"]["verdict"] == "infeasible"
        assert results["validated"] is True
        witness = results["certificate"]["witness"]
        assert witness["kind"] == "deduction-chain"
        assert len(witness["chain"]) == 4
        assert "completion" in results  # the completed table is explained

    def test_quantum_source(self, capsys):
        code, env = run_json(capsys, "lhv", "--source", "quantum:psi-,psi-,fixed")
        assert code == 0
        assert env["results"]["certificate"]["verdict"] == "feasible"
        assert env["results"]["validated"] is True

    def test_file_source_round_trip(self, capsys, tmp_path):
        _, env = run_json(capsys, "lhv", "--source", "paper-claims")
        path = tmp_path / "table.json"
        path.write_text(json.dumps(env["results"]["table"]))
        code, env2 = run_json(capsys, "lhv", "--source", f"file:{path}")
        assert code == 0
        assert env2["results"]["certificate"]["verdict"] == "infeasible"

    def test_chain_fires_for_a_joint_probability_that_underflows(self, capsys, tmp_path):
        # P(D1=1,D2=1) = 10^-400 is 0.0 as a float, yet exactly positive
        den = 10**400
        table = {
            "d1d2": [[{"num": den // 2 + 1, "den": den}, {"num": den // 4 - 1, "den": den}],
                     [{"num": den // 4 - 1, "den": den}, {"num": 1, "den": den}]],
            "d1u2": [[0.5, 0.25], [0, 0.25]],
            "u1d2": [[0.5, 0], [0.25, 0.25]],
            "u1u2": [[0, 0.5], [0.5, 0]],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(table))
        code, env = run_json(capsys, "lhv", "--source", f"file:{path}")
        assert code == 0 and env["results"]["validated"] is True
        witness = env["results"]["certificate"]["witness"]
        assert witness["kind"] == "deduction-chain"
        assert [step["fired"] for step in witness["chain"]] == [True] * 4

    @pytest.mark.parametrize(
        "cell, num, den, exit_code",
        [(0.7018032530403948, 318472, 453791, 2), (0.1356465023366935, 4617, 34037, 0)],
        ids=["beyond", "inside"],
    )
    def test_a_float_cell_is_checked_on_its_exact_value(
        self, capsys, tmp_path, cell, num, den, exit_code
    ):
        # the first cell lies 2.7e-17 beyond 1e-12 of num/den, the second
        # 1.5e-18 inside it: only the second is read as num/den
        table = json.loads(TABLE_WITH_CELL % cell)
        table["d1d2"][0][1] = {"num": den - num, "den": den}
        path = tmp_path / "margin.json"
        path.write_text(json.dumps(table))
        argv = ["lhv", "--source", f"file:{path}", "--tolerance", "1e-12"]
        if exit_code == 2:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "is not within 1e-12 of a rational" in capsys.readouterr().err
        else:
            code, env = run_json(capsys, *argv)
            assert code == 0
            assert env["results"]["table"]["d1d2"][0][0] == {"num": num, "den": den}

    def test_missing_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", "file:does-not-exist.json"])
        assert err.value.code == 2

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d1d2": "nope"}')
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", f"file:{path}"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "a table is a dict"),  # top level is not an object
            (TABLE_WITH_CELL % "Infinity", "bad cell [0][0] in context 'd1d2': a float"),
            (TABLE_WITH_CELL % '{"num": 1, "den": 0}', "bad cell [0][0] in context 'd1d2': a dict"),
            (TABLE_WITH_CELL % "true", "bad cell [0][0] in context 'd1d2': a bool"),
            ('{"d1d2": %s}' % ("[" * 100_000 + "]" * 100_000), "maximum recursion depth"),
            # a scalar first row beside a list second row
            (TABLE_WITH_CELL.replace("[[%s, 0], [0, 0]]", "[5, [0.5, 0.5]]"), GRID_MESSAGE),
            # three cells in the first row: refused by shape, before any sum
            (TABLE_WITH_CELL.replace("[[%s, 0], [0, 0]]", "[[1, 0, 0], [0, 0]]"), GRID_MESSAGE),
        ],
        ids=[
            "top-level-list", "infinity", "zero-denominator", "boolean", "deep-nesting",
            "scalar-first-row", "three-cell-first-row",
        ],
    )
    def test_invalid_file_table_is_one_line_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", f"file:{path}"])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "unreadable table file" in errors[0] and message in errors[0]

    def test_unreadable_file_is_one_line_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(TABLE_WITH_CELL % "1")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", f"file:{path}"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Permission denied" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_overlong_file_name_is_one_line_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", "file:" + "t" * 5000])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1

    def test_unknown_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", "folklore"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "golden, decided",
        [
            ("lhv_paper_claims", claimed_hardy_table),
            ("lhv_quantum_collapsed", lambda: quantum_probability_table(
                BellIndex.PSI_MINUS, BellIndex.PSI_MINUS, Interpretation.COLLAPSED_STATE)),
            ("lhv_file", lambda: json.loads((GOLDEN / "table.json").read_text())),
            ("lhv_file_feasible", lambda: json.loads((GOLDEN / "table_feasible.json").read_text())),
        ],
    )
    def test_a_reported_table_reads_back_as_the_table_decided(self, golden, decided):
        reported = json.loads((GOLDEN / f"{golden}.out").read_text())["results"]["table"]
        reported, decided = rationalize_table(reported), rationalize_table(decided())
        assert (reported.n, reported.den) == (decided.n, decided.den)


class TestSampleCommand:
    def test_dd_context_run(self, capsys):
        code, env = run_json(
            capsys, "sample", "--context", "d1d2", "--shots", "4000", "--seed", "7"
        )
        assert code == 0
        counts = env["results"]["counts"]["counts"]
        assert sum(sum(row) for row in counts) == 4000
        assert env["results"]["comparison"]["max_abs_z"] < 6.0

    def test_impossible_joint_outcome_never_counts(self, capsys):
        code, env = run_json(
            capsys,
            "sample", "--context", "u1u2", "--interp", "fixed",
            "--shots", "1000", "--seed", "1",
        )
        assert code == 0
        assert env["results"]["counts"]["counts"][1][1] == 0

    def test_zero_shots(self, capsys):
        code, env = run_json(
            capsys, "sample", "--context", "d1d2", "--shots", "0", "--seed", "5"
        )
        assert code == 0
        assert env["results"]["counts"]["shots"] == 0
        assert "comparison" not in env["results"]

    def test_non_commuting_context_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--context", "d1u1", "--shots", "10"])
        assert err.value.code == 2

    @pytest.mark.parametrize("shots", [str(2**63), str(2**64)])
    def test_shots_beyond_int64_are_one_line_usage_error(self, capsys, monkeypatch, shots):
        from hardylab import sampler

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample must not run")

        monkeypatch.setattr(sampler, "sample", no_sampling)
        with pytest.raises(SystemExit) as err:
            main(["sample", "--context", "d1d2", "--shots", shots])
        assert err.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "2**63" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_same_seed_reproduces_byte_identical_output(self, capsys):
        args = ("sample", "--context", "d1u2", "--shots", "500", "--seed", "11")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


class TestFormatsAndKnobs:
    def test_table_format_is_human_readable(self, capsys):
        code, out = run_cli(capsys, "expand", "--slots", "A1", "--format", "table")
        assert code == 0
        assert "command: expand" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_tolerance_is_echoed_and_restored(self, capsys):
        code, env = run_json(
            capsys, "expand", "--slots", "A1", "--tolerance", "1e-10"
        )
        assert code == 0
        assert env["tolerance"] == 1e-10
        code, env = run_json(capsys, "expand", "--slots", "A1")
        assert code == 0
        assert env["tolerance"] == 1e-12

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--all", "--interp", "collapsed", f"--tolerance={value}"])
        assert err.value.code == 2
        assert "--tolerance must be finite and > 0" in capsys.readouterr().err
        code, env = run_json(capsys, "expand", "--slots", "A1")
        assert code == 0
        assert env["tolerance"] == 1e-12

    def test_every_command_emits_the_envelope(self, capsys):
        for argv in (
            ["expand", "--slots", "2B"],
            ["audit", "--d1", "phi+", "--d2", "phi-", "--interp", "collapsed"],
            ["lhv", "--source", "quantum:phi+,phi-,collapsed"],
            ["sample", "--context", "u1d2", "--shots", "100", "--seed", "3"],
        ):
            _, env = run_json(capsys, *argv)
            assert set(env) == ENVELOPE_KEYS
            # serialization round-trips losslessly
            assert json.loads(json.dumps(env)) == env


class TestExactValuesIgnoreTheTolerance:
    """A loose ``--tolerance`` widens verdicts only; exact zeros stay zeros."""

    @pytest.mark.parametrize(
        "argv, tolerance",
        [
            (["lhv", "--source", "quantum:psi-,psi-,fixed"], "0.07"),
            (["lhv", "--source", "quantum:psi-,psi-,fixed"], "0.13"),
            (["audit", "--all", "--interp", "fixed"], "0.3"),
            (["expand", "--slots", "2B"], "0.3"),
        ],
    )
    def test_loose_tolerance_keeps_the_probabilities(self, capsys, argv, tolerance):
        code, default = run_json(capsys, *argv)
        assert code == 0
        code, loose = run_json(capsys, *argv, "--tolerance", tolerance)
        assert code == 0
        assert loose["tolerance"] == float(tolerance)
        if argv[0] == "audit":
            measured = [r["measured"] for r in default["results"]["reports"]]
            assert [r["measured"] for r in loose["results"]["reports"]] == measured
            assert loose["results"]["summary"] == default["results"]["summary"]
        else:
            assert loose["results"] == default["results"]


class TestTableIsRationalizedOnce:
    @pytest.mark.parametrize(
        "source",
        ["paper-claims", "quantum:psi-,psi-,collapsed", f"file:{GOLDEN / 'table.json'}"],
        ids=["paper-claims", "quantum:psi-,psi-,collapsed", "file"],
    )
    def test_one_rationalization_per_run(self, capsys, monkeypatch, source):
        # every parse ends in building one ExactTable; an ExactTable passed
        # back to rationalize_table is returned as it is and builds none
        calls = []
        build = ExactTable.__init__

        def counting(self, *args):
            calls.append(args)
            build(self, *args)

        monkeypatch.setattr(ExactTable, "__init__", counting)
        code, env = run_json(capsys, "lhv", "--source", source)
        assert code == 0 and env["results"]["validated"] is True
        assert len(calls) == 1


class TestCertificateIsValidatedOnce:
    @pytest.mark.parametrize("source", ["paper-claims", "quantum:psi-,psi-,collapsed"])
    def test_one_integer_check_per_run(self, capsys, monkeypatch, source):
        from hardylab import lhv

        calls = []
        check = lhv._validate_exact

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(lhv, "_validate_exact", counting)
        code, env = run_json(capsys, "lhv", "--source", source)
        assert code == 0 and env["results"]["validated"] is True
        assert len(calls) == 1

    def test_a_certificate_failing_its_check_is_not_reported(self, capsys, monkeypatch):
        from hardylab import lhv

        monkeypatch.setattr(lhv, "_validate_exact", lambda exact, cert: False)
        assert main(["lhv", "--source", "paper-claims"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed validation" in captured.err


class TestErrorsAreOneLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--slots", "XY"],
            ["audit", "--all", "--tolerance", "nan"],
            ["audit", "--d1", "omega"],
            ["lhv", "--source", "folklore"],
            ["lhv", "--source", "quantum:psi-,psi-"],
            ["sample", "--context", "d1u1", "--shots", "10"],
            ["sample", "--context", "d1d2", "--shots", str(2**63)],
            ["lhv", "--source", "file:a\nb"],
            ["lhv", "--source", f"file:{GOLDEN}"],  # a directory
            ["audit", "--all", "--d1", "bogus"],
            ["audit", "--all", "--d2", "bogus"],
            ["lhv", "--source", "file:"],
        ],
    )
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("hardylab: error: ")
        assert sum("error:" in line for line in lines) == 1

    def test_a_directory_is_not_called_missing(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", f"file:{GOLDEN}"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hardylab: error: table file {str(GOLDEN)!r} is not a regular file"
        )

    def test_an_empty_file_path_is_named_as_missing(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", "file:"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hardylab: error: the file: source names no table file (want file:PATH)"
        )

    def test_a_multi_line_failure_is_reported_on_one_line(self, capsys, monkeypatch):
        from hardylab import lhv
        from hardylab.core import HardyLabError

        def failing(*args):
            raise HardyLabError("malformed outcome table [[0.375, 0.0],\n [0.625, 0.0]]")

        monkeypatch.setattr(lhv, "feasibility", failing)
        assert main(["lhv", "--source", "paper-claims"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed outcome table [[0.375, 0.0], [0.625, 0.0]]\n"
        )


#: perfbench/workloads.cli_argv at seed 0: the runs one cli-cold cycle makes
CLI_COLD_ARGV = [
    ["expand", "--slots", "A1"],
    ["expand", "--slots", "2B"],
    ["audit", "--all", "--interp", "fixed"],
    ["audit", "--all", "--interp", "collapsed"],
    ["lhv", "--source", "paper-claims"],
    ["lhv", "--source", "quantum:psi-,psi-,collapsed"],
    ["sample", "--context", "d1d2", "--shots", "1000", "--seed", "5857645148978988075"],
]


#: The hardylab modules each subcommand's run loads, beyond hardylab and
#: hardylab.cli: each handler imports only the layers it calls.
LAYERS = {
    "expand": {"core", "protocol"},
    "audit --all": {"core", "protocol", "observables"},
    "audit": {"core", "protocol", "observables", "lhv"},  # replay_deductions
    "lhv": {"core", "lhv"},  # paper-claims and file: tables
    "lhv quantum:": {"core", "protocol", "observables", "lhv"},
    "sample": {"core", "protocol", "observables", "sampler"},
}


def _layers_of(argv: list[str]) -> set[str]:
    if argv[0] == "audit":
        return LAYERS["audit --all" if "--all" in argv else "audit"]
    if argv[0] == "lhv" and argv[2].startswith("quantum:"):
        return LAYERS["lhv quantum:"]
    return LAYERS[argv[0]]


def _child_modules(*argv: str, code: str = "") -> set[str]:
    """The names in sys.modules of a child interpreter after ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "import sys\nprint(*sys.modules)", *argv],
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def preloaded():
    """Modules a bare interpreter already has (``site`` loads some on its
    own), and those ``import numpy`` adds to that."""
    bare = _child_modules()
    return bare, _child_modules(code="import numpy\n") - bare


@pytest.mark.parametrize(
    "argv",
    CLI_COLD_ARGV + [
        ["audit", "--d1", "psi-", "--d2", "phi+"],
        ["lhv", "--source", "file:tests/golden/table.json"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_only_sample_imports_numpy(argv, preloaded):
    bare, numpy_brings = preloaded
    child = (
        "import contextlib, io, sys\n"
        "from hardylab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "if code:\n"
        "    sys.exit(code)\n"
    )
    loaded = _child_modules(*argv, code=child)
    assert ("numpy" in loaded) == (argv[0] == "sample")
    assert {m for m in loaded if m.startswith("hardylab")} == {
        "hardylab", "hardylab.cli", *(f"hardylab.{m}" for m in _layers_of(argv))
    }
    new = loaded - bare - (numpy_brings if argv[0] == "sample" else set())
    assert not new & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--slots", "A1"],
        ["audit", "--all"],
        ["lhv", "--source", "paper-claims"],
        ["sample", "--context", "d1d2", "--shots", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_closed_output_pipe_exits_1_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first write
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hardylab", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == b""
