import os
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.core import HardyLabError, NonCommutingError, StateVector
from hardylab.observables import Interpretation, build_d, build_u, context_observables
from hardylab.protocol import BELL_ORDER, BellIndex, make_total_state
from hardylab.sampler import (
    _BLOCK_WORDS,
    CountTable,
    RunConfig,
    _lane_edges,
    compare_frequencies,
    exact_context_probabilities,
    sample,
)

import oracle

PSIM = BellIndex.PSI_MINUS
SRC = Path(__file__).resolve().parent.parent / "src"
CONTEXTS = ("d1d2", "d1u2", "u1d2", "u1u2")
#: Shots per sampler block on the 1/16 grid: 16 per word.
BLOCK_SHOTS = 16 * _BLOCK_WORDS


@pytest.fixture(scope="module")
def state():
    return make_total_state()


def exact_floats(state, cfg) -> list[list[float]]:
    """The run's exact distribution as floats, as ``sample`` reports it."""
    grid, den = exact_context_probabilities(state, cfg)
    return [[n / den for n in row] for row in grid]


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

    def test_first_shot_must_fit_64_bits(self, state):
        first, second = context_observables("d1d2")
        cfg = RunConfig(first, second, 10, 5)
        for bad in (-1, 2**64, 2**300):
            with pytest.raises(HardyLabError):
                sample(state, cfg, first_shot=bad)
        np.testing.assert_array_equal(  # the largest accepted value samples
            sample(state, cfg, first_shot=2**64 - 1).counts,
            oracle.sample_reference(state, cfg, first_shot=2**64 - 1).counts,
        )

    def test_shot_nibbles_run_low_first(self, state):
        # shots 0-15 read the nibbles of word 0, low nibble first
        first, second = context_observables("d1d2")
        grid, den = exact_context_probabilities(state, RunConfig(first, second, 1, 0))
        flat = [Fraction(grid[a][b], den) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
        sums = list(accumulate(flat))[:3]
        seed = 2002
        word = int(np.random.Philox(key=seed).random_raw(1)[0])
        expected = [bisect_right(sums, (word >> 4 * j & 15) / 16) for j in range(16)]
        cells = []
        for k in range(16):
            counts = sample(state, RunConfig(first, second, 1, seed), first_shot=k).counts
            cells.append(int(np.flatnonzero(counts.ravel())[0]))
        assert cells == expected
        assert len(set(cells)) > 1

    def test_zero_shots(self, state):
        first, second = context_observables("d1d2")
        table = sample(state, RunConfig(first, second, 0, 3))
        assert table.shots == 0
        assert table.counts.sum() == 0

    def test_impossible_cells_never_fire(self, state):
        first, second = context_observables("u1u2")
        grid, _ = exact_context_probabilities(
            state, RunConfig(first, second, 1, 0)
        )
        assert grid[1][1] == 0 and grid[0][0] == 0
        for seed in range(10):
            counts = sample(state, RunConfig(first, second, 5000, seed))
            assert counts.counts[1][1] == 0
            assert counts.counts[0][0] == 0

    def test_frequencies_near_exact(self, state, dd_config):
        counts = sample(state, dd_config)
        exact = exact_floats(state, dd_config)
        report = compare_frequencies(counts, exact)
        assert report.max_abs_z < 5.0
        assert not report.impossible_violations

    def test_z_scores_stay_small_for_the_acceptance_seeds(self, state):
        first, second = context_observables("d1d2")
        exact = exact_floats(state, RunConfig(first, second, 1, 0))
        for seed in range(1, 11):
            counts = sample(state, RunConfig(first, second, 100000, seed))
            assert compare_frequencies(counts, exact).max_abs_z <= 4.0

    def test_quadrupling_shots_shrinks_the_mean_deviation(self, state):
        # convergence over the fixed acceptance seed set: max|frequency - p|
        # shrinks as 1/sqrt(shots), while a z-score does not move with shots
        first, second = context_observables("d1d2")
        exact = exact_floats(state, RunConfig(first, second, 1, 0))

        def mean_max_deviation(shots):
            devs = [
                max(
                    abs(cell.deviation)
                    for cell in compare_frequencies(
                        sample(state, RunConfig(first, second, shots, seed)), exact
                    ).cells
                )
                for seed in range(1, 11)
            ]
            return sum(devs) / len(devs)

        assert mean_max_deviation(640000) <= mean_max_deviation(160000)


class TestWordEdges:
    def test_top_word_cannot_reach_a_zero_last_cell(self):
        # no edge is cut from the last nonzero cell, cell 2, on
        bits, edges = _lane_edges([2908, 5044, 2048, 0], 10000)
        assert bits == 64 and [i for i, _ in edges] == [0, 1]
        top = 2**64 - 1  # u = 1 - 2**-53, the largest uniform
        assert sum(top >= cut for _, cut in edges) == 2  # lands in cell 2
        # an edge within 2**-53 of 1 is cut past the largest lane, so it is dropped
        assert _lane_edges([1, 2**60 - 2, 1, 0], 2**60) == (64, [(0, 1 << 11)])

    def test_cut_matches_the_exact_comparison(self):
        flat = [1, 2, 3, 4]
        bits, edges = _lane_edges(flat, 10)
        assert bits == 64
        for i, cut in edges:
            below, at = cut - 1, cut
            b = Fraction(sum(flat[: i + 1]), 10)
            assert Fraction(below >> 11, 2**53) < b <= Fraction(at >> 11, 2**53)

    def test_edges_on_the_grid_cut_nibbles(self):
        assert _lane_edges([1, 3, 0, 12], 16) == (4, [(0, 1), (1, 4), (2, 4)])
        # a zero first cell gives a cut of 0, which every nibble passes
        assert _lane_edges([0, 1, 1, 0], 2) == (4, [(0, 0), (1, 8)])
        assert _lane_edges([1, 0, 0, 0], 1) == (4, [])


class TestMatchesReference:
    """Counts equal the per-shot nibble sampler kept in ``tests/oracle.py``."""

    @settings(max_examples=500, deadline=None)
    @given(
        context=st.sampled_from(CONTEXTS),
        d1=st.sampled_from(BELL_ORDER),
        d2=st.sampled_from(BELL_ORDER),
        interp=st.sampled_from(list(Interpretation)),
        seed=st.integers(0, 2**64 - 1),
        first_shot=st.one_of(
            st.just(0),
            st.tuples(st.integers(0, 2**30), st.integers(1, 15)).map(lambda t: 16 * t[0] + t[1]),
            # the last 63 shots before a 4-word counter block and the first 63 after
            st.tuples(st.integers(1, 2**30), st.integers(-63, 63)).map(lambda t: 64 * t[0] + t[1]),
            st.integers(2**32 + 1, 2**40),
            st.integers(2**64 - 2**20, 2**64 - 1),
        ),
        shots=st.one_of(
            st.sampled_from([0, 1, BLOCK_SHOTS - 1, BLOCK_SHOTS, BLOCK_SHOTS + 1]),
            st.integers(1, 3).map(lambda k: k * BLOCK_SHOTS + 3),
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
        # u1u2 has a cut of 0 and d1u2 two equal cuts: both skip a count
        first, second = context_observables(context)
        cfg = RunConfig(first, second, 2**22, 2**63 + 11)
        np.testing.assert_array_equal(
            sample(state, cfg, first_shot=2**33 + 1).counts,
            oracle.sample_reference(state, cfg, first_shot=2**33 + 1).counts,
        )


@pytest.mark.parametrize("last", [0, 1])
def test_no_cell_past_the_last_nonzero_one_fires(last):
    # a product state with qubit 1 in |->, so U1 never fires; qubit 2 is
    # |-> (only cell (0, 0) is reachable) or |+> + |-> (cells (0, 0), (0, 1))
    amps = [0] * 16
    amps[0b0110] = 1
    if last == 1:
        amps[0b0100] = 1
    state = StateVector(amps, ("A", "1", "2", "B"))
    first, second = context_observables("u1u2")
    for shots, seed, first_shot in [(1000, 7, 0), (BLOCK_SHOTS + 5, 2**63 + 1, 2**33 + 7)]:
        cfg = RunConfig(first, second, shots, seed)
        grid, _ = exact_context_probabilities(state, cfg)
        flat = [n for row in grid for n in row]
        assert max(i for i, p in enumerate(flat) if p) == last
        counts = sample(state, cfg, first_shot).counts
        assert counts.ravel()[last + 1 :].tolist() == [0] * (3 - last)
        np.testing.assert_array_equal(
            counts, oracle.sample_reference(state, cfg, first_shot).counts
        )


def test_edges_off_the_byte_grid_take_a_word_per_shot():
    # cells 1/5 and 4/5: qubit 1 has amplitudes (1, 2), and u2 is certain
    amps = [0] * 16
    amps[0b0000], amps[0b0100] = 1, 2
    state = StateVector(amps, ("A", "1", "2", "B"))
    first, second = context_observables("u1u2")
    for shots, seed, first_shot in [(1000, 3, 0), (_BLOCK_WORDS + 5, 2**63 + 1, 2**33 + 7)]:
        cfg = RunConfig(first, second, shots, seed)
        grid, den = exact_context_probabilities(state, cfg)
        assert Fraction(grid[0][1], den) == Fraction(4, 5)
        np.testing.assert_array_equal(
            sample(state, cfg, first_shot).counts,
            oracle.sample_word_reference(state, cfg, first_shot).counts,
        )


def test_edges_on_the_byte_grid_only_take_a_word_per_shot():
    # norm² 32: cells 1/32 and 31/32, on the 1/256 grid but off the 1/16 one
    amps = [0] * 16
    amps[0b0000] = 1
    amps[0b0100], amps[0b0101], amps[0b1100], amps[0b1101] = 5, 2, 1, 1
    state = StateVector(amps, ("A", "1", "2", "B"))
    first, second = context_observables("u1u2")
    for shots, seed, first_shot in [(1000, 5, 3), (_BLOCK_WORDS + 5, 2**63 + 3, 2**33 + 9)]:
        cfg = RunConfig(first, second, shots, seed)
        grid, den = exact_context_probabilities(state, cfg)
        cells = sorted(Fraction(n, den) for row in grid for n in row)
        assert cells[2:] == [Fraction(1, 32), Fraction(31, 32)]
        np.testing.assert_array_equal(
            sample(state, cfg, first_shot).counts,
            oracle.sample_word_reference(state, cfg, first_shot).counts,
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
