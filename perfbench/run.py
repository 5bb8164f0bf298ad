"""hardylab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload audit-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Each workload runs in a worker process of its own (worker.py), as a closed
loop: one op after another, no threads, at most one child process at a
time.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Every op's output is checked; the full result,
stamped with the machine and versions, goes to ``.perfbench/`` in the
checkout.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("audit-sweep", "lhv-tables", "sample-long", "cli-cold")
#: Set-ups per --trace 0 run; setup_s is their median.
SETUPS = 9
TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The calibration loop then runs on the CPU that the timed work runs on;
    the virtual CPUs of one host can differ in speed at the same moment.
    The program is single-threaded and the loop runs one process at a time,
    so one CPU takes nothing from it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(args, probe: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its calibrated set-up time in s (see
    reference.py) and, unless probing, its result.  The worker times the
    calibration loop last in its set-up and reports it with ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT)]
    cmd += ["--probe"] * probe + ["--quick"] * args.quick
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise TimeoutError(f"worker for {args.workload} did not finish set-up in time")
        ready = proc.stdout.readline().split()
        setup = time.perf_counter() - start
        if len(ready) != 2 or ready[0] != "ready":
            raise RuntimeError(f"worker for {args.workload} failed during set-up")
        setup *= NOMINAL_MS["python"] * 1e6 / int(ready[1])
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup, None if probe else json.loads(rest.strip().splitlines()[-1])


def run_workload(args, units: dict) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(1 if args.quick else SETUPS - 1):
            setups.append(spawn(args, True, deadline)[0])
    setup, result = spawn(args, False, deadline)
    setups.append(setup)

    correct = result["failed"] == 0 and all(result["whole_run_checks"].values())
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    report = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = dict(report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, stamp=stamp(args, result), setups_s=setups,
                   whole_run_checks=result["whole_run_checks"], info=result["info"])
    if not args.trace:
        details["failed_ratio"] = result["failed_ratio"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n")
    return report


def stamp(args, result: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "op_size": result["size"],
        "work_unit": result["unit"],
        "quick": args.quick,
    }


def load_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_table(name: str, report: dict) -> None:
    print(f"{name}: correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for metric, m in report["metrics"].items():
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny op sizes, for the self-check; gates nothing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hardylab" / "__init__.py").is_file():
        print(f"error: no hardylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    units = load_units()[args.trace]

    if args.workload != "all":
        report = run_workload(args, units)
        print_table(args.workload, report)
        print(json.dumps(report))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        report = run_workload(args, units)
        print_table(name, report)
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, m in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
