"""Runs one workload in its own process; started by run.py.

Protocol: the worker prints ``ready <ns>`` once set-up is done (imports,
input generation, one warm-up op, one run of the Python calibration loop,
which takes ``<ns>``), so run.py can time set-up from process start.  A
``--probe`` worker exits there.  Otherwise it runs the timed loop and
prints one JSON object as its last line.  Everything else goes to stderr.

Every op is preceded by one run of the workload's calibration loop (see
reference.py), outside the op's timer; timings are reported calibrated.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Spans whose per-op call count is reported.
COUNTED = ("core.ObservableOp", "core.commutator_norm", "protocol.make_total_state",
           "protocol.expand_in_bell_basis", "observables.build_d", "observables.build_u")
#: Spans whose per-op self time is reported.
SELF_TIMED = ("core.ObservableOp", "core.born_probability", "core.collapse", "core.apply",
              "protocol.expand_in_bell_basis", "protocol.verify_expansion",
              "observables.build_d", "observables.build_u", "observables.audit_pair",
              "observables.joint_outcome_table", "lhv.rationalize_table", "lhv.feasibility",
              "lhv.validate_certificate", "sampler.RunConfig",
              "sampler.exact_context_probabilities", "sampler.compare_frequencies")
#: Share of a cli-cold traced run spent on the subprocess ops that give its
#: tail and its output checks.
CHILD_SHARE = 0.4
CLI_PASSES = 3


class Op:
    """One timed op: index, wall ns, calibration-loop ns, output record."""

    __slots__ = ("k", "ns", "ref_ns", "rec")

    def __init__(self, k: int, ns: int, ref_ns: int, rec) -> None:
        self.k, self.ns, self.ref_ns, self.rec = k, ns, ref_ns, rec

    def ms(self, nominal_ms: float) -> float:
        """Wall time at the speed where the calibration loop takes nominal_ms."""
        return self.ns / self.ref_ns * nominal_ms


def timed_op(op, record, k: int, reference: str) -> Op:
    from reference import time_loop

    ref_ns = time_loop(reference)
    start = time.perf_counter_ns()
    out = op(k)
    ns = time.perf_counter_ns() - start
    return Op(k, ns, ref_ns, record(k, out))


def timed_loop(wl, seconds: float) -> list[Op]:
    """Closed loop of end-to-end ops until ``seconds`` have passed and a
    cycle is complete."""
    ops = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        ops.append(timed_op(wl.op, wl.record, k, wl.reference))
        k += 1
        if k % wl.cycle == 0 and time.perf_counter() >= deadline:
            return ops


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def judge(wl, ops: list[Op]) -> tuple[int, dict[str, bool]]:
    """Failed op count and the whole-run checks, all after the timed loop."""
    records = [(o.k, o.rec) for o in ops]
    whole = wl.final_checks(records)
    failed = sum(not wl.check(k, rec) for k, rec in records)
    return failed, whole


def untraced_run(wl, seconds: float) -> dict:
    from reference import NOMINAL_MS

    ops = timed_loop(wl, seconds)
    rss = peak_rss_mb(children=wl.op_in_child)
    failed, whole = judge(wl, ops)
    nominal = NOMINAL_MS[wl.reference]
    p50 = statistics.median(o.ms(nominal) for o in ops)
    info = wl.info([(o.k, o.rec) for o in ops])
    info["wall_op_ms_p50"] = statistics.median(o.ns for o in ops) / 1e6
    info["calibration_loop_ms_p50"] = statistics.median(o.ref_ns for o in ops) / 1e6
    return {
        "attempted": len(ops),
        "failed": failed,
        "whole_run_checks": whole,
        "metrics": {
            "op_ms_p50": p50,
            "work_per_s": wl.units_per_op / (p50 / 1e3),
            "peak_rss_mb": rss,
            "ok_ratio": (len(ops) - failed) / len(ops),
        },
        "failed_ratio": failed / len(ops),
        "info": info,
    }


def alternating_cycles(wl, tracer, seconds: float):
    """Untraced and traced cycles of ``traced_op`` in turn, so both kinds
    see the same warm-up and the same machine.  Returns the untraced ops,
    the traced ops and, per traced cycle, its per-op span figures."""
    from tracing import cycle_stats

    # the end-to-end op's checks apply only when it is the op timed here
    record = (lambda k, out: None) if wl.op_in_child else wl.record
    plain, traced, stats = [], [], []
    deadline = time.perf_counter() + seconds
    k = c = 0
    while c % 2 or time.perf_counter() < deadline:
        tracing = c % 2 == 1
        first = len(tracer.spans)
        if tracing:
            tracer.install()
        try:
            cycle = []
            for _ in range(wl.cycle):
                tracer.op = k
                cycle.append(timed_op(wl.traced_op, record, k, wl.reference))
                k += 1
        finally:
            tracer.uninstall()
        if tracing:
            traced += cycle
            stats.append(cycle_stats(tracer.spans, first, len(tracer.spans),
                                     sum(o.ns for o in cycle), wl.cycle))
        else:
            plain += cycle
        c += 1
    return plain, traced, stats


def traced_run(wl, hl, seconds: float, imports: dict, spans_path: Path) -> dict:
    import tracemalloc

    from reference import NOMINAL_MS
    from tracing import Tracer, cycle_stats, span_summary
    from workloads import CliCold, cli_argv, in_process_cli

    tracer = Tracer()
    if wl.op_in_child:  # its tail and checks come from the real subprocess ops
        e2e = timed_loop(wl, seconds * CHILD_SHARE)
        plain, traced, cycles = alternating_cycles(wl, tracer, seconds * (1 - CHILD_SHARE))
    else:
        plain, traced, cycles = alternating_cycles(wl, tracer, seconds)
        e2e = plain
    failed, whole = judge(wl, e2e)
    nominal = NOMINAL_MS[wl.reference]
    # per-layer times are scaled by the run's calibration, like op times
    speed = nominal * 1e6 / statistics.median(o.ref_ns for o in e2e + plain + traced)

    # Layers this workload's op never calls are read from one pass of the
    # cli-cold argv list in this process, so that every metric is measured.
    argv = cli_argv(0, CliCold.SHOTS)
    for a in argv:  # warm-up
        in_process_cli(hl, a)
    probe_first = len(tracer.spans)
    tracer.op = -1
    tracer.install()
    try:
        start = time.perf_counter_ns()
        for a in argv:
            in_process_cli(hl, a)
        probe_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    probe = cycle_stats(tracer.spans, probe_first, len(tracer.spans), probe_ns, len(argv))
    probe_summary = span_summary(tracer.spans[probe_first:])
    fallback: list[str] = []

    def per_op(name: str, field: str) -> float:
        values = [c[field].get(name, 0) for c in cycles]
        if field == "calls" or any(values):
            return statistics.median(values)
        fallback.append(f"{name}.{field}")
        return probe[field].get(name, 0)

    metrics: dict[str, float] = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = per_op(name, "calls")
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = per_op(name, "self_ms") * speed
    ratios = [c["distinct_op_ratio"] for c in cycles if c["distinct_op_ratio"] is not None]
    if ratios:
        metrics["observables.distinct_op_ratio"] = statistics.median(ratios)
    else:
        fallback.append("observables.distinct_op_ratio")
        metrics["observables.distinct_op_ratio"] = probe["distinct_op_ratio"]
    for name, value in span_summary(tracer.spans[:probe_first]).items():
        if value is None:
            fallback.append(name)
            value = probe_summary[name]
        metrics[name] = value * speed if name.endswith(("_ms_p50", "ns_per_shot")) else value

    state, cfg = wl.sample_run()
    tracemalloc.start()
    try:
        hl.sampler.sample(state, cfg)
        metrics["sampler.sample.peak_bytes_per_shot"] = tracemalloc.get_traced_memory()[1] / cfg.shots
    finally:
        tracemalloc.stop()

    passes = []
    for _ in range(CLI_PASSES):
        start = time.perf_counter_ns()
        for a in argv:
            in_process_cli(hl, a)
        passes.append(time.perf_counter_ns() - start)
    metrics.update({
        "cli.import_numpy_s": imports["numpy"] * speed,
        "cli.import_hardylab_s": imports["hardylab"] * speed,
        "cli.main_ms": statistics.median(passes) / 1e6 * speed,
        "driver.op_ms_p90": statistics.quantiles([o.ms(nominal) for o in e2e], n=10,
                                                 method="inclusive")[-1],
        "trace.overhead_ratio": statistics.median(o.ms(1) for o in traced)
        / statistics.median(o.ms(1) for o in plain),
        "trace.unattributed_ms": statistics.median(c["unattributed_ms"] for c in cycles) * speed,
        "failed_ratio": failed / len(e2e),
    })

    tracer.write(spans_path)
    return {
        "attempted": len(e2e),
        "failed": failed,
        "whole_run_checks": whole,
        "metrics": metrics,
        "info": {"per_layer_from_cli_probe": sorted(fallback), "traced_ops": len(traced),
                 "untraced_ops": len(plain), "spans": len(tracer.spans),
                 "calibration_speed": speed,
                 "spans_file": str(spans_path.relative_to(ROOT))},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import numpy

    numpy_done = time.perf_counter()
    hl = importlib.import_module("hardylab")
    for mod in ("core", "protocol", "observables", "lhv", "sampler", "cli"):
        importlib.import_module(f"hardylab.{mod}")
    imports = {"numpy": numpy_done - start, "hardylab": time.perf_counter() - numpy_done}

    from workloads import WORKLOADS  # after the timed imports: it imports numpy

    wl = WORKLOADS[args.workload](hl, args.seed, args.quick)
    wl.op(0)  # warm-up
    from reference import time_loop

    print("ready", time_loop("python"), flush=True)
    if args.probe:
        return 0

    if args.trace:
        spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        result = traced_run(wl, hl, args.seconds, imports, spans_path)
    else:
        result = untraced_run(wl, args.seconds)
    result["numpy"] = numpy.__version__
    result["size"] = wl.size
    result["unit"] = wl.unit
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
