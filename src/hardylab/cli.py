"""Command-line front end: every verification as a reproducible report.

Four subcommands: ``expand`` (re-derive a Bell-basis expansion and compare
it with the reference table), ``audit`` (measure the four Hardy conditions
for one or all D1/D2 pairs), ``lhv`` (decide local-model feasibility of a
probability table with a validated certificate), and ``sample`` (finite-
shot simulation of one measurement context).

Every command emits a JSON envelope {command, parameters, results,
tool_version, tolerance}; ``--format table`` renders the same content for
humans.  Exit codes: 0 success / validated, 1 verification failure (or a
closed output pipe), 2 usage or input error.  All randomness flows through --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core import TOLERANCE, HardyLabError
from .lhv import (
    CLAIMED_TABLE_NOTES,
    claimed_hardy_table,
    feasibility,
    rational_json,
    rationalize_table,
    replay_deductions,
)
from .observables import (
    Interpretation,
    audit_pair,
    context_observables,
    enumerate_all_pairs,
    quantum_probability_table,
)
from .protocol import BELL_ORDER, BellIndex, make_total_state, verify_expansion

_BELL_LABELS = {b.value: b for b in BELL_ORDER}
_INTERP_LABELS = {i.value: i for i in Interpretation}


def _bell(label: str, parser: argparse.ArgumentParser) -> BellIndex:
    try:
        return _BELL_LABELS[label]
    except KeyError:
        parser.error(f"unknown Bell label {label!r} (want psi-, psi+, phi-, phi+)")


def _interp(label: str, parser: argparse.ArgumentParser) -> Interpretation:
    try:
        return _INTERP_LABELS[label]
    except KeyError:
        parser.error(f"unknown interpretation {label!r} (want fixed or collapsed)")


def _envelope(command: str, parameters: dict, results: dict, tol: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "tool_version": __version__,
        "tolerance": tol,
    }


def _emit(envelope: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        _print_table(envelope)


def _print_table(envelope: dict, indent: int = 0) -> None:
    pad = "  " * indent
    if indent == 0:
        print(f"{pad}command: {envelope['command']}   "
              f"(tool {envelope['tool_version']}, tolerance {envelope['tolerance']})")
        for key, value in envelope["parameters"].items():
            print(f"{pad}  {key} = {value}")
        _print_table(envelope["results"], indent + 1)
        return
    obj = envelope
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _print_table(item, indent)
                print()
            else:
                print(f"{pad}- {item}")


def cmd_expand(args, parser) -> int:
    if args.slots not in ("A1", "2B"):
        parser.error(f"unknown slot pair {args.slots!r} (want A1 or 2B)")
    report = verify_expansion(args.slots)
    envelope = _envelope("expand", {"slots": args.slots}, report.to_jsonable(), args.tolerance)
    _emit(envelope, args.format)
    return 0 if report.all_phase else 1


def cmd_audit(args, parser) -> int:
    interp = _interp(args.interp, parser)
    if args.all:
        reports, summary = enumerate_all_pairs(interp, args.tolerance)
        results = {
            "reports": [r.to_jsonable() for r in reports],
            "summary": summary,
        }
        parameters = {"all": True, "interp": interp.value}
    else:
        d1 = _bell(args.d1, parser)
        d2 = _bell(args.d2, parser)
        report = audit_pair(d1, d2, interp, args.tolerance)
        trace = replay_deductions(report.measured, args.tolerance)
        results = {
            "report": report.to_jsonable(),
            "deductions_on_measured": trace.to_jsonable(),
        }
        parameters = {"d1": d1.value, "d2": d2.value, "interp": interp.value}
    _emit(_envelope("audit", parameters, results, args.tolerance), args.format)
    return 0  # the audit is informational; verdicts live in the payload


def _load_table_source(source: str, tol: float, parser):
    """Resolve an lhv --source value into (exact table, description dict).

    Only a ``file:`` table can hold floats; its cells are rationalized at ``tol``.
    """
    if source == "paper-claims":
        exact = claimed_hardy_table()
        return exact, {"source": source, "completion": CLAIMED_TABLE_NOTES}
    if source.startswith("quantum:"):
        parts = source[len("quantum:") :].split(",")
        if len(parts) != 3:
            parser.error("quantum source must look like quantum:psi-,psi-,fixed")
        d1 = _bell(parts[0].strip(), parser)
        d2 = _bell(parts[1].strip(), parser)
        interp = _interp(parts[2].strip(), parser)
        exact = quantum_probability_table(d1, d2, interp)
        return exact, {
            "source": source,
            "d1": d1.value,
            "d2": d2.value,
            "interp": interp.value,
        }
    if source.startswith("file:"):
        path = Path(source[len("file:") :])
        try:
            if not path.is_file():
                parser.error(f"table file {str(path)!r} does not exist")
            exact = rationalize_table(json.loads(path.read_text(encoding="utf-8")), tol)
        except (HardyLabError, OSError, ValueError, RecursionError) as err:
            parser.error(f"unreadable table file {str(path)!r}: {err}")
        return exact, {"source": source}
    parser.error(
        f"unknown source {source!r} (want paper-claims, quantum:D1,D2,INTERP, or file:PATH)"
    )


def cmd_lhv(args, parser) -> int:
    exact, description = _load_table_source(args.source, args.tolerance, parser)
    # feasibility re-checks its certificate against the table, in integers,
    # and raises (exit 1) if that check fails; a returned one is validated
    cert = feasibility(exact)
    results = {
        "table": {
            key: [[rational_json(p) for p in row] for row in grid] for key, grid in exact.items()
        },
        "certificate": cert.to_jsonable(),
        "validated": True,
    }
    results.update(description)
    _emit(_envelope("lhv", {"source": args.source}, results, args.tolerance), args.format)
    return 0


def cmd_sample(args, parser) -> int:
    # the sampler is the one module that needs numpy, so only sample loads it
    from .sampler import RunConfig, compare_frequencies, exact_context_probabilities, sample

    d1 = _bell(args.d1, parser)
    d2 = _bell(args.d2, parser)
    interp = _interp(args.interp, parser)
    try:
        first, second = context_observables(args.context, d1, d2, interp)
        cfg = RunConfig(first, second, args.shots, args.seed)
    except HardyLabError as err:
        parser.error(str(err))
    state = make_total_state()
    counts = sample(state, cfg)
    exact = exact_context_probabilities(state, cfg)
    results = {
        "context": args.context,
        "observables": [first.name, second.name],
        "exact": [[float(p) for p in row] for row in exact],
        "counts": counts.to_jsonable(),
    }
    if args.shots > 0:
        results["comparison"] = compare_frequencies(counts, exact).to_jsonable()
    parameters = {
        "context": args.context,
        "d1": d1.value,
        "d2": d2.value,
        "interp": interp.value,
        "shots": args.shots,
        "seed": args.seed,
    }
    _emit(_envelope("sample", parameters, results, args.tolerance), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Exact verification lab for a teleportation-based "
        "Hardy-style nonlocality argument.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--tolerance", type=float, default=TOLERANCE,
                       help="tolerance of the audit verdicts, the deduction replay and "
                       "file: table cells (default %(default)s; finite and > 0)")

    p_expand = sub.add_parser("expand", help="re-derive one Bell-basis expansion")
    p_expand.add_argument("--slots", required=True, help="A1 or 2B")
    common(p_expand)

    p_audit = sub.add_parser("audit", help="measure the four Hardy conditions")
    p_audit.add_argument("--d1", default="psi-", help="Bell label for D1")
    p_audit.add_argument("--d2", default="psi-", help="Bell label for D2")
    p_audit.add_argument("--interp", default="fixed", help="fixed or collapsed")
    p_audit.add_argument("--all", action="store_true", help="audit all 16 pairs")
    common(p_audit)

    p_lhv = sub.add_parser("lhv", help="local-model feasibility of a table")
    p_lhv.add_argument(
        "--source",
        required=True,
        help="paper-claims | quantum:D1,D2,INTERP | file:PATH",
    )
    common(p_lhv)

    p_sample = sub.add_parser("sample", help="finite-shot run of one context")
    p_sample.add_argument("--context", required=True,
                          help="two of d1,d2,u1,u2 joined, e.g. d1d2 or u1u2")
    p_sample.add_argument("--d1", default="psi-", help="Bell label for D1")
    p_sample.add_argument("--d2", default="psi-", help="Bell label for D2")
    p_sample.add_argument("--interp", default="fixed", help="fixed or collapsed")
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    common(p_sample)

    return parser


_HANDLERS = {
    "expand": cmd_expand,
    "audit": cmd_audit,
    "lhv": cmd_lhv,
    "sample": cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        parser.error(f"--tolerance must be finite and > 0, got {args.tolerance!r}")
    try:
        return _HANDLERS[args.command](args, parser)
    except HardyLabError as err:
        print("error:", *str(err).split(), file=sys.stderr)  # always one line
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe fails inside the try
    except BrokenPipeError:  # stdout to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
