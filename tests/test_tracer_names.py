"""The benchmark tracer's names and tags still fit the package.

``perfbench/tracing.py`` finds each function it spans and each class whose
constructions it counts with ``getattr`` on its ``hardylab`` module, and
tags ``build_d``/``build_u`` results by ``op.name`` and
``op.matrix.tobytes()``, ``feasibility`` results by verdict or witness
kind and ``sample`` results by shot count.  A deletion that drops one of
those names breaks ``perfbench/run.py --trace 1``; this test catches it in
the regular suite.  It only reads ``perfbench/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hardylab.lhv import claimed_hardy_table, feasibility
from hardylab.observables import Interpretation, build_d, build_u, context_observables
from hardylab.protocol import BELL_ORDER, TOTAL_STATE
from hardylab.sampler import RunConfig, sample

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
TRACED = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACED)
NAMES = [
    (module, name)
    for table in (TRACED.SPANNED, TRACED.CONSTRUCTED)
    for module, names in table.items()
    for name in names
]


@pytest.mark.parametrize("module, name", NAMES)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"hardylab.{module}"), name))


def test_built_operators_carry_the_tagged_attributes():
    ops = [build_d(pair, index) for pair in ("A1", "2B") for index in BELL_ORDER]
    ops += [build_u(slot, interp, index)
            for slot in ("1", "2") for interp in Interpretation for index in BELL_ORDER]
    for op in ops:
        assert isinstance(op.name, str) and op.name
        assert len(op.matrix.tobytes()) == 16 * 16 * 8


@pytest.mark.parametrize(
    "table_file, tag",
    [("table_feasible.json", "feasible"), ("table.json", "no-signalling"),
     ("table_chsh.json", "chsh-facet"), (None, "deduction-chain")],
)
def test_a_decision_is_tagged_by_its_verdict_or_witness_kind(table_file, tag):
    if table_file is None:
        table = claimed_hardy_table()
    else:
        table = json.loads((GOLDEN / table_file).read_text(encoding="utf-8"))
    assert TRACED._TAGGERS["lhv.feasibility"](feasibility(table)) == tag


def test_a_sample_is_tagged_by_its_shot_count():
    counts = sample(TOTAL_STATE, RunConfig(*context_observables("d1d2"), 100, 0))
    assert TRACED._TAGGERS["sampler.sample"](counts) == 100
