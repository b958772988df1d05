#!/usr/bin/env python3
"""Unit tests for the regression verdict in ci/perf_pairs.py.

Run from the repository root: python3 ci/test_perf_pairs.py

The verdict is exercised on synthetic pairs; nothing is built or
benchmarked. One test makes a throwaway git repository.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402


def run(wall_s, sim_resp_us=100.0, fingerprint=("fingerprint ipu 1",), correct=True):
    """A synthetic benchmark run: its result line and its fingerprint."""
    result = {
        "correct": correct,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "sim_resp_us.ipu": {"value": sim_resp_us, "unit": "us"},
        },
    }
    return result, list(fingerprint)


def verdict(base, change, mismatches=(), goldens_moved=False):
    """Whether a workload with these paired wall times fails the gate."""
    timing = perf_pairs.timing_verdict(base, change)
    return perf_pairs.workload_verdict(timing, list(mismatches), goldens_moved)[1]


class TimingVerdict(unittest.TestCase):
    BASE = [1.0] * 10

    def test_nine_of_ten_slower_fails(self):
        change = [1.05] * 9 + [0.95]
        self.assertEqual(perf_pairs.timing_verdict(self.BASE, change)["slower"], 9)
        self.assertTrue(verdict(self.BASE, change))

    def test_eight_of_ten_slower_passes(self):
        change = [1.05] * 8 + [0.95] * 2
        self.assertFalse(verdict(self.BASE, change))

    def test_ties_count_for_neither_side(self):
        # Eight slower, two tied: not nine slower, so it passes...
        change = [1.05] * 8 + [1.0] * 2
        timing = perf_pairs.timing_verdict(self.BASE, change)
        self.assertEqual((timing["slower"], timing["faster"]), (8, 0))
        self.assertFalse(verdict(self.BASE, change))
        # ...and one faster, nine tied is not a gain either.
        timing = perf_pairs.timing_verdict(self.BASE, [0.9] + [1.0] * 9)
        self.assertEqual((timing["slower"], timing["faster"]), (0, 1))

    def test_median_delta_is_relative_to_the_base(self):
        timing = perf_pairs.timing_verdict([1.0, 2.0, 3.0], [1.1, 2.2, 3.3])
        self.assertAlmostEqual(timing["delta"], 0.1)


class SimulatedWork(unittest.TestCase):
    def test_identical_pairs_have_no_mismatch(self):
        self.assertEqual(perf_pairs.sim_mismatches("w", 1, run(1.0), run(1.2)), [])

    def test_sim_metric_mismatch_fails(self):
        mismatches = perf_pairs.sim_mismatches("w", 1, run(1.0), run(1.0, sim_resp_us=99.0))
        self.assertEqual(len(mismatches), 1)
        self.assertIn("sim_resp_us.ipu", mismatches[0])
        self.assertTrue(verdict([1.0] * 10, [0.9] * 10, mismatches))

    def test_fingerprint_mismatch_fails(self):
        other = run(1.0, fingerprint=("fingerprint ipu 2",))
        mismatches = perf_pairs.sim_mismatches("w", 1, run(1.0), other)
        self.assertEqual(len(mismatches), 1)
        self.assertTrue(verdict([1.0] * 10, [1.0] * 10, mismatches))

    def test_mismatch_passes_when_the_goldens_changed(self):
        mismatches = perf_pairs.sim_mismatches("w", 1, run(1.0), run(1.0, sim_resp_us=99.0))
        self.assertFalse(verdict([1.0] * 10, [0.9] * 10, mismatches, goldens_moved=True))
        # The two sides did different work, so even a slower change passes.
        self.assertFalse(verdict([1.0] * 10, [1.1] * 10, mismatches, goldens_moved=True))

    def test_goldens_change_does_not_excuse_a_regression_on_identical_work(self):
        self.assertTrue(verdict([1.0] * 10, [1.1] * 10, goldens_moved=True))

    def test_failed_run_is_reported_on_either_side(self):
        bad = run(1.0, correct=False)
        self.assertEqual(len(perf_pairs.run_failures("w", 1, bad, run(1.0))), 1)
        self.assertEqual(len(perf_pairs.run_failures("w", 1, run(1.0), bad)), 1)
        self.assertEqual(perf_pairs.run_failures("w", 1, run(1.0), run(1.0)), [])


class GoldensChanged(unittest.TestCase):
    def test_only_a_deleted_or_rewritten_golden_line_counts(self):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as repo:
            os.chdir(repo)
            try:
                def git(*args):
                    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                                    *args], check=True, stdout=subprocess.DEVNULL)
                git("init", "-q")
                os.makedirs(os.path.dirname(perf_pairs.GOLDENS))
                for path in (perf_pairs.GOLDENS, "other.txt"):
                    with open(path, "w") as f:
                        f.write("a\n")
                git("add", "-A")
                git("commit", "-q", "-m", "base")
                with open("other.txt", "w") as f:
                    f.write("b\n")
                self.assertFalse(perf_pairs.goldens_changed("HEAD"))
                # Appended cells leave every existing cell in place.
                with open(perf_pairs.GOLDENS, "a") as f:
                    f.write("new\n")
                self.assertFalse(perf_pairs.goldens_changed("HEAD"))
                with open(perf_pairs.GOLDENS, "w") as f:
                    f.write("b\nnew\n")
                self.assertTrue(perf_pairs.goldens_changed("HEAD"))
                with open(perf_pairs.GOLDENS, "w") as f:
                    f.write("")
                self.assertTrue(perf_pairs.goldens_changed("HEAD"))
            finally:
                os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
