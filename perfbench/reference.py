"""Calibration loops: fixed work, independent of hardylab, timed next to ops.

The virtual CPUs this benchmark was written on share their host, and the
same code runs up to ~1.7x slower from one few-second stretch to the next
(Intel Xeon, 2 vCPUs: one audit-sweep op took 51 to 98 ms within a
minute).  A run's median cannot average that out, so every timing the
benchmark gates is calibrated: an op's wall time is divided by the wall
time of a reference loop run next to it, and multiplied by the loop's
nominal time.  The result reads as the op's time at the machine speed
where the loop takes its nominal time.  In probes of 45 s, the calibrated
audit-sweep time moved +-5% while the raw time moved +-25%.

Each workload uses the loop whose work resembles its own: interpreted
Python with small arrays, exact rational arithmetic, streaming over large
arrays, or starting an interpreter.  The loops must never change, or calibrated times stop being
comparable across commits.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

_SMALL = np.eye(16, dtype=complex) * (1 + 1j) / 2
_CUTS = np.array([0.25, 0.5, 0.75, 1.0])


def python_loop() -> int:
    """Rational arithmetic, dict updates and 16x16 complex products."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(400):
        acc += Fraction(i % 7, 16)
        counts[i % 37] = counts.get(i % 37, 0) + i
    m = _SMALL
    for _ in range(60):
        m = np.kron(np.eye(2), m[:8, :8]) @ _SMALL
        float(np.abs(m).max())
    return acc.numerator + len(counts)


def rational_loop() -> int:
    """Gauss-Jordan elimination of a fixed 10x14 matrix of fractions."""
    rows = [[Fraction((i * 7 + j * 3) % 11 + (i == j), 1 + (i + j) % 5) for j in range(14)]
            for i in range(10)]
    for p in range(10):
        pivot = rows[p][p]
        if pivot == 0:
            continue
        rows[p] = [v / pivot for v in rows[p]]
        for i in range(10):
            if i != p and rows[i][p] != 0:
                f = rows[i][p]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[p])]
    return sum(r[-1] for r in rows).denominator


def array_loop() -> int:
    """Integer hashing, float conversion and bucketing over 2^19 words."""
    words = np.arange(2**19, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    return int(np.searchsorted(_CUTS, uniforms, side="right").sum())


def process_loop() -> int:
    """Start a bare interpreter that does nothing: exec, loading, teardown."""
    return subprocess.run([sys.executable, "-S", "-c", "pass"], check=True).returncode


#: Nominal wall time of each loop, in ms.
NOMINAL_MS = {"python": 4.0, "rational": 6.0, "array": 10.0, "process": 12.0}
LOOPS = {"python": python_loop, "rational": rational_loop, "array": array_loop,
         "process": process_loop}


def time_loop(kind: str) -> int:
    """Wall time of one run of the named loop, in ns."""
    loop = LOOPS[kind]
    start = time.perf_counter_ns()
    loop()
    return time.perf_counter_ns() - start
