"""Spans around hardylab's public functions, recorded from outside the package.

The package's modules import one another's functions by name, so a span
has to be installed wherever a name is looked up: ``observables.born_probability``
as well as ``core.born_probability``.  ``install`` swaps every binding of a
spanned function for one shared wrapper, and counts operator and run-config
constructions through the class constructors.  ``uninstall`` puts the
original objects back, so untraced phases run the unmodified program.

A span is ``(name, start_ns, end_ns, parent_index, op_id, tag)``.  Spans are
kept in memory in call order and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

#: Functions that get a span, by the module that defines them.
SPANNED = {
    "core": ("born_probability", "collapse", "commutator_norm", "apply"),
    "protocol": ("make_total_state", "expand_in_bell_basis", "verify_expansion"),
    "observables": ("build_d", "build_u", "audit_pair", "joint_outcome_table"),
    "lhv": ("rationalize_table", "feasibility", "validate_certificate"),
    "sampler": ("sample", "exact_context_probabilities", "compare_frequencies"),
    "cli": ("main",),
}

#: Classes whose constructions get a span.
CONSTRUCTED = {"core": ("ObservableOp",), "sampler": ("RunConfig",)}

#: Span tags taken from a return value, for the ratio metrics.
_TAGGERS = {
    "observables.build_d": lambda op: (op.name, op.matrix.tobytes()),
    "observables.build_u": lambda op: (op.name, op.matrix.tobytes()),
    "lhv.feasibility": lambda cert: cert.witness.kind if cert.witness else cert.verdict,
    "sampler.sample": lambda counts: counts.shots,
}

MODULES = tuple(SPANNED)


class Tracer:
    """Records spans while installed; ``op`` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _record(self, name: str, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            spans[index] = (name, start, end, parent, self.op, None)
        tagger = _TAGGERS.get(name)
        if tagger is not None:
            spans[index] = (name, start, end, parent, self.op, tagger(result))
        return result

    def install(self) -> None:
        mods = {m: sys.modules[f"hardylab.{m}"] for m in MODULES}
        wrappers = {}
        for short, names in SPANNED.items():
            for fname in names:
                original = getattr(mods[short], fname)
                wrappers[id(original)] = self._wrap(f"{short}.{fname}", original)
        namespaces = [sys.modules["hardylab"], *mods.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        for short, classes in CONSTRUCTED.items():
            for cname in classes:
                cls = getattr(mods[short], cname)
                original = cls.__init__
                self._undo.append((cls, "__init__", original))
                cls.__init__ = self._wrap(f"{short}.{cname}", original)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    def _wrap(self, name: str, fn):
        record = self._record

        def spanned(*args, **kwargs):
            return record(name, fn, args, kwargs)

        spanned.__wrapped__ = fn
        return spanned

    def write(self, path) -> None:
        """Write the spans as gzipped JSON, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[n], a - t0, b - t0, p, op] for n, a, b, p, op, _ in self.spans]
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": names, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def cycle_stats(spans: list, first: int, last: int, op_ns: int, ops: int) -> dict:
    """Per-op averages over spans[first:last], one cycle of ``ops`` ops.

    Returns calls and self time per span name, the unattributed time
    (op wall time outside every root span), and the distinct share of
    the operators that build_d/build_u returned.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    root_ns = 0
    built = []
    for k in range(first, last):
        name, start, end, parent, _, tag = spans[k]
        dur = end - start
        calls[name] += 1
        self_ns[name] += dur
        if parent >= first:
            self_ns[spans[parent][0]] -= dur
        else:
            root_ns += dur
        if name in ("observables.build_d", "observables.build_u"):
            built.append(tag)
    return {
        "calls": {n: c / ops for n, c in calls.items()},
        "self_ms": {n: t / ops / 1e6 for n, t in self_ns.items()},
        "unattributed_ms": (op_ns - root_ns) / ops / 1e6,
        "distinct_op_ratio": len(set(built)) / len(built) if built else None,
    }


def span_summary(spans: list) -> dict:
    """Whole-run figures that are ratios over calls rather than per op."""
    feasible, infeasible, kinds = [], [], defaultdict(int)
    sample_ns = shots = 0
    for name, start, end, _, _, tag in spans:
        if name == "lhv.feasibility":
            (feasible if tag == "feasible" else infeasible).append((end - start) / 1e6)
            kinds[tag] += 1
        elif name == "sampler.sample":
            sample_ns += end - start
            shots += tag
    decided = len(feasible) + len(infeasible)
    return {
        "lhv.feasibility.feasible_ms_p50": statistics.median(feasible) if feasible else None,
        "lhv.feasibility.infeasible_ms_p50": statistics.median(infeasible) if infeasible else None,
        "lhv.infeasible_share": len(infeasible) / decided if decided else None,
        "lhv.chain_witness_share": kinds["deduction-chain"] / len(infeasible) if infeasible else None,
        "sampler.sample.ns_per_shot": sample_ns / shots if shots else None,
    }
