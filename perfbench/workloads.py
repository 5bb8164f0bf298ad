"""The four benchmark workloads.

Each workload builds its inputs from the seed and runs one op at a time
(``op(k)`` is the k-th op of the run).  Right after each op, outside its
timer, ``record`` reduces the output to what the checks need, so that the
memory a run holds does not grow with its op count.  The records are
checked against ``oracle`` after the timed loop.  A workload's ops repeat
in cycles of ``cycle`` ops; the timed loop only stops at a cycle boundary,
so every run holds the same mix of ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: |z| above this fails a sample-long op; a correct sampler exceeds it with
#: probability ~2e-9 per cell.
Z_LIMIT = 6.0
EXACT = 1e-9


def derived_seed(seed: int, k: int) -> int:
    """A 64-bit seed for op ``k``, fixed by the workload seed."""
    digest = hashlib.blake2b(f"{seed}/{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def cli_argv(seed: int, shots: int) -> list[list[str]]:
    """The CLI runs cli-cold cycles through, in order."""
    return [
        ["expand", "--slots", "A1"],
        ["expand", "--slots", "2B"],
        ["audit", "--all", "--interp", "fixed"],
        ["audit", "--all", "--interp", "collapsed"],
        ["lhv", "--source", "paper-claims"],
        ["lhv", "--source", "quantum:psi-,psi-,collapsed"],
        ["sample", "--context", "d1d2", "--shots", str(shots),
         "--seed", str(derived_seed(seed, 0))],
    ]


def in_process_cli(hl, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hl.cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    cycle = 1
    unit = ""  # what one work unit is
    units_per_op = 1
    #: The end-to-end op runs in a child process, so the traced phase times
    #: ``traced_op`` in this process instead.
    op_in_child = False
    #: The calibration loop whose work resembles the op's (reference.py).
    reference = "python"

    def op(self, k: int):
        raise NotImplementedError

    def traced_op(self, k: int):
        """The op the traced phase times; the end-to-end op unless that
        runs outside this process."""
        return self.op(k)

    def record(self, k: int, out):
        """What the checks need of op ``k``'s output."""
        return out

    def check(self, k: int, rec) -> bool:
        raise NotImplementedError

    def final_checks(self, records: list) -> dict[str, bool]:
        """Checks over the whole run's ``(k, record)`` pairs, made after the
        timed loop and before the per-op ``check`` calls, which may use what
        they compute."""
        return {}

    def info(self, records: list) -> dict:
        return {}

    def sample_run(self):
        """A state and run config for measuring the sampler's memory per shot."""
        first, second = self.hl.observables.context_observables("d1d2")
        cfg = self.hl.sampler.RunConfig(first, second, CliCold.SHOTS, 0)
        return self.hl.protocol.make_total_state(), cfg


class AuditSweep(Workload):
    """Both 16-pair sweeps; 32 pair audits per op.  The seed is unused."""

    name = "audit-sweep"
    unit = "pair_audit"
    units_per_op = 32

    def __init__(self, hl, seed: int, quick: bool) -> None:
        self.hl = hl
        interp = hl.observables.Interpretation
        self.readings = (("fixed", interp.FIXED_BASIS), ("collapsed", interp.COLLAPSED_STATE))
        self.expected = {name: oracle.audit_sweep(name) for name, _ in self.readings}
        self.size = {"pair_audits_per_op": self.units_per_op}

    def op(self, k: int):
        sweep = self.hl.observables.enumerate_all_pairs
        return [sweep(reading) for _, reading in self.readings]

    def record(self, k: int, out) -> bool:
        """The op's reports are held only until they are checked, here."""
        keys = tuple(oracle.AUDIT_TARGETS)
        for (name, _), (reports, summary) in zip(self.readings, out):
            expected = self.expected[name]
            if len(reports) != len(expected):
                return False
            passing = 0
            for report, exp, pair in zip(reports, expected, oracle.PAIRS):
                if (report.d1_bell.value, report.d2_bell.value) != pair:
                    return False
                measured = report.measured.to_jsonable()
                verdicts = {key: abs(exp[key] - oracle.AUDIT_TARGETS[key]) <= EXACT for key in keys}
                if any(abs(measured[key] - exp[key]) > EXACT for key in keys):
                    return False
                if dict(report.verdicts) != verdicts:
                    return False
                passing += all(verdicts.values())
            # the headline values of the audit, stated outright
            if name == "fixed" and any(abs(r.measured.c_d2u1 - 0.5) > EXACT for r in reports):
                return False
            if name == "collapsed" and any(abs(r.measured.p_u1u2 - 0.25) > EXACT for r in reports):
                return False
            if abs(summary["sum_p_joint"] - 1.0) > EXACT or summary["pairs_passing_all"] != passing:
                return False
        return True

    def check(self, k: int, rec: bool) -> bool:
        return rec


class LhvTables(Workload):
    """``feasibility`` plus ``validate_certificate`` over a batch of tables.

    Each batch takes a fixed number of tables from every class of the seeded
    pool, cycling through each class in a seeded order, so feasible and
    infeasible verdicts share every op.
    """

    name = "lhv-tables"
    unit = "table"
    reference = "rational"
    MIX = {"quantum": 6, "paper-claims": 1, "local-mixture": 11, "hardy-pattern": 11, "generic": 11}
    QUICK_MIX = {"quantum": 1, "paper-claims": 1, "local-mixture": 2, "hardy-pattern": 2, "generic": 2}

    def __init__(self, hl, seed: int, quick: bool) -> None:
        self.hl = hl
        self.mix = self.QUICK_MIX if quick else self.MIX
        self.pool = oracle.table_pool(seed, 8 if quick else 66)
        rng = random.Random(seed)
        self.members = {}
        for cls in self.mix:
            idx = [k for k, (c, _) in enumerate(self.pool) if c == cls]
            rng.shuffle(idx)
            self.members[cls] = idx
        self.units_per_op = sum(self.mix.values())
        self.size = {"tables_per_batch": self.units_per_op, "pool_tables": len(self.pool)}

    def batch(self, k: int) -> list[int]:
        return [
            idx[(k * n + t) % len(idx)]
            for cls, n in self.mix.items()
            for idx in (self.members[cls],)
            for t in range(n)
        ]

    def op(self, k: int):
        lhv = self.hl.lhv
        out = []
        for i in self.batch(k):
            table = self.pool[i][1]
            cert = lhv.feasibility(table)
            out.append((i, cert, lhv.validate_certificate(table, cert)))
        return out

    def record(self, k: int, out) -> list[tuple[int, str, str, bool]]:
        """Per table: pool index, verdict, witness kind, re-validated."""
        return [(i, cert.verdict, cert.witness.kind if cert.witness else "", ok)
                for i, cert, ok in out]

    def final_checks(self, records: list) -> dict[str, bool]:
        # scipy is imported only now, after the timed loop and the memory
        # reading, so that neither set-up time nor peak RSS includes it
        used = sorted({i for _, rec in records for i, *_ in rec})
        self.linprog = {i: oracle.linprog_verdict(self.pool[i][1]) for i in used}
        return {}

    def check(self, k: int, rec) -> bool:
        return all(ok and verdict == self.linprog[i] for i, verdict, _, ok in rec)

    def info(self, records: list) -> dict:
        classes, verdicts, kinds = Counter(), Counter(), Counter()
        for _, rec in records:
            for i, verdict, kind, _ in rec:
                classes[self.pool[i][0]] += 1
                verdicts[verdict] += 1
                kinds[f"{self.pool[i][0]}:{kind or verdict}"] += 1
        total = sum(classes.values())
        return {
            "tables_decided": total,
            "table_class_share": {c: n / total for c, n in sorted(classes.items())},
            "verdict_share": {v: n / total for v, n in sorted(verdicts.items())},
            "class_outcome_counts": dict(sorted(kinds.items())),
        }


class SampleLong(Workload):
    """One ``sample()`` per op, cycling through the four contexts."""

    name = "sample-long"
    unit = "shot"
    cycle = 4
    reference = "array"
    CONTEXTS = oracle.CONTEXT_KEYS

    def __init__(self, hl, seed: int, quick: bool) -> None:
        self.hl = hl
        self.seed = seed
        self.shots = 2**12 if quick else 2**22
        self.units_per_op = self.shots
        self.state = hl.protocol.make_total_state()
        self.observables = {key: hl.observables.context_observables(key) for key in self.CONTEXTS}
        self.exact = oracle.quantum_table("psi-", "psi-", "fixed")
        self.size = {"shots_per_op": self.shots, "bell_pair": "psi-,psi-", "interp": "fixed"}

    def run_config(self, k: int, shots: int):
        first, second = self.observables[self.CONTEXTS[k % 4]]
        return self.hl.sampler.RunConfig(first, second, shots, derived_seed(self.seed, k))

    def op(self, k: int):
        return self.hl.sampler.sample(self.state, self.run_config(k, self.shots)).counts

    def check(self, k: int, out) -> bool:
        exact = self.exact[self.CONTEXTS[k % 4]]
        n = self.shots
        if int(out.sum()) != n or (out < 0).any():
            return False
        for a in (0, 1):
            for b in (0, 1):
                p, c = exact[a][b], int(out[a][b])
                if p < EXACT:
                    if c != 0:
                        return False
                elif p < 1 - EXACT and abs(c - n * p) > Z_LIMIT * math.sqrt(n * p * (1 - p)):
                    return False
        return True

    def sample_run(self):
        return self.state, self.run_config(0, self.shots)

    def final_checks(self, records: list) -> dict[str, bool]:
        """Sampling [0, N) at once equals [0, N/2) plus [N/2, N)."""
        sample, half = self.hl.sampler.sample, self.shots // 2
        whole = sample(self.state, self.run_config(0, self.shots)).counts
        left = sample(self.state, self.run_config(0, half)).counts
        right = sample(self.state, self.run_config(0, self.shots - half), first_shot=half).counts
        return {"shot_ranges_merge": bool((whole == left + right).all())}


class CliCold(Workload):
    """One ``python -m hardylab`` run per op, cycling through a fixed argv list."""

    name = "cli-cold"
    unit = "cli_run"
    op_in_child = True
    reference = "process"
    SHOTS = 1000

    def __init__(self, hl, seed: int, quick: bool) -> None:
        self.hl = hl
        self.argv = cli_argv(seed, self.SHOTS)
        self.cycle = len(self.argv)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.size = {"argv_per_cycle": len(self.argv), "sample_shots": self.SHOTS}

    def op(self, k: int):
        argv = self.argv[k % self.cycle]
        proc = subprocess.run(
            [sys.executable, "-m", "hardylab", *argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def traced_op(self, k: int):
        return in_process_cli(self.hl, self.argv[k % self.cycle])

    def final_checks(self, records: list) -> dict[str, bool]:
        firsts = {}
        identical = True
        for k, (_, stdout) in records:
            first = firsts.setdefault(k % self.cycle, stdout)
            identical &= stdout == first
        self.content_ok = {i: _cli_content_ok(self.argv[i], out) for i, out in firsts.items()}
        return {"repeated_argv_byte_identical": identical}

    def check(self, k: int, out) -> bool:
        code, _ = out
        return code == 0 and self.content_ok[k % self.cycle]


def _cli_content_ok(argv: list[str], stdout: bytes) -> bool:
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError):
        return False
    command = argv[0]
    if command == "expand":
        return results["all_up_to_phase"] is True
    if command == "audit":
        reports, summary = results["reports"], results["summary"]
        interp = argv[argv.index("--interp") + 1]
        expected = oracle.audit_sweep(interp)
        return len(reports) == 16 and abs(summary["sum_p_joint"] - 1.0) <= EXACT and all(
            abs(r["measured"][key] - exp[key]) <= EXACT
            for r, exp in zip(reports, expected)
            for key in oracle.AUDIT_TARGETS
        )
    if command == "lhv":
        cert = results["certificate"]
        if argv[2] == "paper-claims":
            return (results["validated"] is True and cert["verdict"] == "infeasible"
                    and cert["witness"]["kind"] == "deduction-chain")
        return results["validated"] is True and cert["verdict"] == "feasible"
    if command == "sample":
        shots = int(argv[argv.index("--shots") + 1])
        counts = results["counts"]["counts"]
        return sum(map(sum, counts)) == shots and not results["comparison"]["impossible_violations"]
    return False


WORKLOADS = {w.name: w for w in (AuditSweep, LhvTables, SampleLong, CliCold)}
