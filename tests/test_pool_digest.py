"""Every certificate over the benchmark's table pool, pinned by one digest.

``perfbench/oracle.table_pool(seed, 66)`` for seeds 0-9 is the seeded
pool the ``lhv-tables`` workload draws from: 2310 tables of five classes.
The digest is the sha256 of each certificate's sorted-key JSON, joined by
newlines in pool order, so a refactor of :func:`hardylab.lhv.feasibility`
that changes any verdict, model weight or witness changes it.  The pool is
loaded from ``perfbench/oracle.py`` by path; this test only reads
``perfbench/``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from hardylab.lhv import feasibility, rationalize_table

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"

_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
POOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(POOL)

#: sha256 of the 2310 certificates, seeds 0-9 at 66 tables per class
DIGEST = "0c56e3858b27d174f6d1b3139137f57628ae1bf4e21cd5c5d1a5147e369a80c1"


def test_every_pool_certificate_is_unchanged():
    lines = [
        json.dumps(feasibility(table).to_jsonable(rationalize_table(table)), sort_keys=True)
        for seed in range(10)
        for _, table in POOL.table_pool(seed, 66)
    ]
    assert len(lines) == 2310
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
