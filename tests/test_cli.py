import json

import pytest

from hardylab import __version__
from hardylab.cli import main

ENVELOPE_KEYS = {"command", "parameters", "results", "tool_version", "tolerance"}

#: A well-formed table file with its first cell left open.
TABLE_WITH_CELL = (
    '{"d1d2": [[%s, 0], [0, 0]], "d1u2": [[1, 0], [0, 0]], '
    '"u1d2": [[1, 0], [0, 0]], "u1u2": [[1, 0], [0, 0]]}'
)


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
        "text",
        [
            "[1, 2]",  # top level is not an object
            TABLE_WITH_CELL % "Infinity",
            TABLE_WITH_CELL % '{"num": 1, "den": 0}',
            TABLE_WITH_CELL % "true",
            '{"d1d2": %s}' % ("[" * 100_000 + "]" * 100_000),
        ],
        ids=["top-level-list", "infinity", "zero-denominator", "boolean", "deep-nesting"],
    )
    def test_invalid_file_table_is_one_line_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", f"file:{path}"])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "unreadable table file" in errors[0]

    def test_unknown_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lhv", "--source", "folklore"])
        assert err.value.code == 2


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
        from hardylab.core import tolerance

        before = tolerance()
        code, env = run_json(
            capsys, "expand", "--slots", "A1", "--tolerance", "1e-10"
        )
        assert code == 0
        assert env["tolerance"] == 1e-10
        assert tolerance() == before

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, value):
        from hardylab.core import tolerance

        before = tolerance()
        with pytest.raises(SystemExit) as err:
            main(["audit", "--all", "--interp", "collapsed", f"--tolerance={value}"])
        assert err.value.code == 2
        assert "--tolerance must be finite and > 0" in capsys.readouterr().err
        assert tolerance() == before

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
        ],
    )
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("hardylab: error: ")
        assert sum("error:" in line for line in lines) == 1

    def test_a_multi_line_failure_is_reported_on_one_line(self, capsys, monkeypatch):
        from hardylab import cli
        from hardylab.core import HardyLabError

        def failing(*args):
            raise HardyLabError("malformed outcome table [[0.375, 0.0],\n [0.625, 0.0]]")

        monkeypatch.setattr(cli, "feasibility", failing)
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


@pytest.mark.parametrize("argv", CLI_COLD_ARGV, ids=lambda argv: "-".join(argv[:3]))
def test_only_sample_imports_numpy(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    child = (
        "import contextlib, io, sys\n"
        "from hardylab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.split() == ["0", str(argv[0] == "sample")], done.stderr
