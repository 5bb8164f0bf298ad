import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.core import HardyLabError, NonCommutingError
from hardylab.observables import Interpretation, build_d, build_u, context_observables
from hardylab.protocol import BELL_ORDER, BellIndex, make_total_state
from hardylab.sampler import (
    _BLOCK,
    CountTable,
    RunConfig,
    _word_edges,
    compare_frequencies,
    exact_context_probabilities,
    sample,
)

import oracle

PSIM = BellIndex.PSI_MINUS
SRC = Path(__file__).resolve().parent.parent / "src"
CONTEXTS = ("d1d2", "d1u2", "u1d2", "u1u2")


@pytest.fixture(scope="module")
def state():
    return make_total_state()


@pytest.fixture(scope="module")
def dd_config():
    return RunConfig(build_d("A1", PSIM), build_d("2B", PSIM), 20000, 42)


class TestRunConfig:
    def test_non_commuting_context_rejected(self):
        d1 = build_d("A1", PSIM)
        u1 = build_u("1", Interpretation.FIXED_BASIS, PSIM)
        with pytest.raises(NonCommutingError):
            RunConfig(u1, d1, 10, 0)

    def test_negative_shots_rejected(self):
        first, second = context_observables("d1d2")
        with pytest.raises(HardyLabError):
            RunConfig(first, second, -1, 0)

    def test_seed_must_fit_64_bits(self):
        first, second = context_observables("d1d2")
        with pytest.raises(HardyLabError):
            RunConfig(first, second, 10, 2**64)
        RunConfig(first, second, 10, 2**64 - 1)  # boundary is fine

    def test_shots_must_fit_the_int64_tally(self):
        first, second = context_observables("d1d2")
        for shots in (2**63, 2**64):
            with pytest.raises(HardyLabError):
                RunConfig(first, second, shots, 0)
        RunConfig(first, second, 2**63 - 1, 0)  # boundary is fine; built, never sampled


class TestSampling:
    def test_bit_for_bit_reproducibility(self, state, dd_config):
        a = sample(state, dd_config)
        b = sample(state, dd_config)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self, state):
        first, second = context_observables("d1d2")
        a = sample(state, RunConfig(first, second, 20000, 1))
        b = sample(state, RunConfig(first, second, 20000, 2))
        assert not np.array_equal(a.counts, b.counts)

    def test_shot_ranges_merge_exactly(self, state):
        # the substream rule: shot k is a pure function of (seed, k)
        first, second = context_observables("d1d2")
        full = sample(state, RunConfig(first, second, 1000, 9))
        merged = np.zeros((2, 2), dtype=np.int64)
        for start, count in [(0, 137), (137, 363), (500, 500)]:
            part = sample(state, RunConfig(first, second, count, 9), first_shot=start)
            merged += part.counts
        np.testing.assert_array_equal(full.counts, merged)

    def test_zero_shots(self, state):
        first, second = context_observables("d1d2")
        table = sample(state, RunConfig(first, second, 0, 3))
        assert table.shots == 0
        assert table.counts.sum() == 0

    def test_impossible_cells_never_fire(self, state):
        first, second = context_observables("u1u2")
        exact = exact_context_probabilities(
            state, RunConfig(first, second, 1, 0)
        )
        assert exact[1][1] == 0.0 and exact[0][0] == 0.0
        for seed in range(10):
            counts = sample(state, RunConfig(first, second, 5000, seed))
            assert counts.counts[1][1] == 0
            assert counts.counts[0][0] == 0

    def test_frequencies_near_exact(self, state, dd_config):
        counts = sample(state, dd_config)
        exact = exact_context_probabilities(state, dd_config)
        report = compare_frequencies(counts, exact)
        assert report.max_abs_z < 5.0
        assert not report.impossible_violations

    def test_z_scores_stay_small_for_the_acceptance_seeds(self, state):
        first, second = context_observables("d1d2")
        exact = exact_context_probabilities(state, RunConfig(first, second, 1, 0))
        for seed in range(1, 11):
            counts = sample(state, RunConfig(first, second, 100000, seed))
            assert compare_frequencies(counts, exact).max_abs_z <= 4.0

    def test_doubling_shots_does_not_worsen_mean_z(self, state):
        # convergence check over the fixed acceptance seed set only
        first, second = context_observables("d1d2")
        exact = exact_context_probabilities(state, RunConfig(first, second, 1, 0))

        def mean_max_z(shots):
            zs = [
                compare_frequencies(
                    sample(state, RunConfig(first, second, shots, seed)), exact
                ).max_abs_z
                for seed in range(1, 11)
            ]
            return sum(zs) / len(zs)

        assert mean_max_z(320000) <= mean_max_z(160000)


class TestWordEdges:
    def test_top_word_cannot_reach_a_zero_last_cell(self):
        # the cumulative sum stops one ulp short of 1 before the zero cell
        flat = np.array([0.2908058851918934, 0.5044399923036108, 0.20475412250449568, 0.0])
        assert np.cumsum(flat)[2] == 0.9999999999999999
        edges = _word_edges(flat)
        assert [i for i, _ in edges] == [0, 1]
        top = np.uint64(2**64 - 1)  # u = 1 - 2**-53, the largest uniform
        assert sum(bool(top >= cut) for _, cut in edges) == 2  # lands in cell 2

    def test_cut_matches_the_float_comparison(self):
        flat = np.array([0.1, 0.2, 0.3, 0.4])
        for i, cut in _word_edges(flat):
            below, at = int(cut) - 1, int(cut)
            b = np.cumsum(flat)[i]
            assert (below >> 11) * 2.0**-53 < b <= (at >> 11) * 2.0**-53


class TestMatchesReference:
    """Counts equal the per-shot float sampler kept in ``tests/oracle.py``."""

    @settings(max_examples=500, deadline=None)
    @given(
        context=st.sampled_from(CONTEXTS),
        d1=st.sampled_from(BELL_ORDER),
        d2=st.sampled_from(BELL_ORDER),
        interp=st.sampled_from(list(Interpretation)),
        seed=st.integers(0, 2**64 - 1),
        first_shot=st.one_of(
            st.just(0),
            st.integers(0, 2**30).map(lambda k: 4 * k + 1),
            st.integers(0, 2**30).map(lambda k: 4 * k + 3),
            st.integers(2**32 + 1, 2**40),
        ),
        shots=st.one_of(
            st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
            st.integers(1, 3).map(lambda k: k * _BLOCK + 3),
            st.integers(0, 10),
        ),
    )
    def test_counts_equal_reference(
        self, state, context, d1, d2, interp, seed, first_shot, shots
    ):
        first, second = context_observables(context, d1, d2, interp)
        cfg = RunConfig(first, second, shots, seed)
        np.testing.assert_array_equal(
            sample(state, cfg, first_shot).counts,
            oracle.sample_reference(state, cfg, first_shot).counts,
        )

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_long_runs_equal_reference(self, state, context):
        first, second = context_observables(context)
        cfg = RunConfig(first, second, 2**22, 2**63 + 11)
        np.testing.assert_array_equal(
            sample(state, cfg, first_shot=2**33 + 1).counts,
            oracle.sample_reference(state, cfg, first_shot=2**33 + 1).counts,
        )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ten_million_shots_stay_under_100_mb():
    # The child reports its own peak RSS.  Its ru_maxrss would not do: a
    # child started by vfork counts the peak of the test process it came from.
    child = (
        "import contextlib, os, sys\n"
        "from hardylab.cli import main\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line for line in status if line.startswith('VmHWM:'))\n"
        "print(code, peak.split()[1])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = ["sample", "--context", "d1d2", "--shots", "10000000"]
    done = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kib < 100 * 1024


class TestCountTable:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(HardyLabError):
            CountTable(np.array([[1, 0], [0, 0]]), 2)

    def test_counts_must_be_nonnegative(self):
        with pytest.raises(HardyLabError):
            CountTable(np.array([[-1, 1], [1, 1]]), 2)


class TestCompareFrequencies:
    def test_identical_counts_have_zero_deviation(self):
        counts = CountTable(np.array([[25, 25], [25, 25]]), 100)
        exact = np.full((2, 2), 0.25)
        report = compare_frequencies(counts, exact)
        assert report.max_abs_z == 0.0
        assert all(c.deviation == 0.0 for c in report.cells)

    def test_impossible_event_is_flagged(self):
        counts = CountTable(np.array([[50, 49], [0, 1]]), 100)
        exact = np.array([[0.5, 0.5], [0.0, 0.0]])
        report = compare_frequencies(counts, exact)
        assert (1, 1) in report.impossible_violations
        assert (1, 0) not in report.impossible_violations

    def test_zero_total_rejected(self):
        counts = CountTable(np.zeros((2, 2), dtype=int), 0)
        with pytest.raises(HardyLabError):
            compare_frequencies(counts, np.full((2, 2), 0.25))

    def test_z_scores_use_binomial_errors(self):
        counts = CountTable(np.array([[30, 20], [25, 25]]), 100)
        exact = np.full((2, 2), 0.25)
        report = compare_frequencies(counts, exact)
        cell = next(c for c in report.cells if c.outcome == (0, 0))
        se = np.sqrt(0.25 * 0.75 / 100)
        assert cell.z_score == pytest.approx((0.30 - 0.25) / se)
