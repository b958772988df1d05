#!/usr/bin/env python3
"""Unit tests for the regression verdict and the source exports in
ci/perf_pairs.py.

Run from the repository root: python3 ci/test_perf_pairs.py

The verdict is exercised on synthetic pairs; nothing is built or
benchmarked. Two tests make a throwaway git repository.
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


def traced_run(gc_s, fingerprint=("fingerprint ipu 1",)):
    """A synthetic traced run: per-layer metrics only, no wall_s."""
    result = {
        "correct": True,
        "failed": 0,
        "metrics": {"ftl.gc_s.ipu": {"value": gc_s, "unit": "s"}},
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


class TracedRuns(unittest.TestCase):
    def test_runs_without_wall_s_get_no_timing_verdict(self):
        # Every change run slower: untraced, that would be a regression.
        pairs = [(traced_run(1.0), traced_run(1.1)) for _ in range(10)]
        self.assertEqual(perf_pairs.summarize(pairs)[0]["change_lower"], 0)
        timing, (line, fails) = perf_pairs.judge(pairs, [], False)
        self.assertIsNone(timing)
        self.assertFalse(fails)
        self.assertIn("no timing verdict", line)

    def test_fingerprint_mismatch_still_fails_without_wall_s(self):
        base, change = traced_run(1.0), traced_run(1.0, fingerprint=("fingerprint ipu 2",))
        mismatches = perf_pairs.sim_mismatches("w", 1, base, change)
        _, (line, fails) = perf_pairs.judge([(base, change)], mismatches, False)
        self.assertTrue(fails)
        self.assertIn("no timing verdict", line)

    def test_untraced_pairs_keep_their_timing_verdict(self):
        pairs = [(run(1.0), run(1.1)) for _ in range(10)]
        timing, (_, fails) = perf_pairs.judge(pairs, [], False)
        self.assertEqual(timing["slower"], 10)
        self.assertTrue(fails)


class BoundMarker(unittest.TestCase):
    BOUNDS = {"wall_s": ("lower", 0.25), "rate": ("higher", 0.25)}

    def marked(self, name, base, change):
        return perf_pairs.exceeds_bound(name, base, change, self.BOUNDS)

    def test_a_metric_exactly_at_its_bound_is_not_marked(self):
        self.assertFalse(self.marked("wall_s", 1.0, 1.25))
        self.assertFalse(self.marked("rate", 1.0, 0.75))

    def test_a_metric_just_past_its_bound_is_marked(self):
        self.assertTrue(self.marked("wall_s", 1.0, 1.2501))
        self.assertTrue(self.marked("rate", 1.0, 0.7499))
        # Better by any amount is never over the bound.
        self.assertFalse(self.marked("wall_s", 1.0, 0.5))
        self.assertFalse(self.marked("rate", 1.0, 2.0))

    def test_a_per_layer_metric_is_never_marked(self):
        pairs = [(traced_run(1.0), traced_run(10.0)) for _ in range(10)]
        row = perf_pairs.summarize(pairs, self.BOUNDS)[0]
        self.assertEqual(row["metric"], "ftl.gc_s.ipu")
        self.assertFalse(row["exceeds_bound"])

    def test_summary_rows_carry_the_marker(self):
        pairs = [(run(1.0), run(1.3)) for _ in range(10)]
        rows = {r["metric"]: r for r in perf_pairs.summarize(pairs, self.BOUNDS)}
        self.assertTrue(rows["wall_s"]["exceeds_bound"])
        self.assertFalse(rows["sim_resp_us.ipu"]["exceeds_bound"])

    def test_the_bounds_come_from_the_benchmark_file(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bounds = perf_pairs.load_bounds(os.path.join(root, "BENCHMARK.json"))
        self.assertEqual(bounds["wall_s"], ("lower", 0.25))
        self.assertNotIn("ftl.gc_s.ipu", bounds)


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


class OneSourcePath(unittest.TestCase):
    def test_both_sides_export_to_one_path_with_their_own_times(self):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as repo:
            os.chdir(repo)
            try:
                def git(*args):
                    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                                    *args], check=True, stdout=subprocess.DEVNULL)

                def write(path, text, mtime):
                    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                    with open(path, "w") as f:
                        f.write(text)
                    os.utime(path, (mtime, mtime))

                def tree(root):
                    found = {}
                    for top, _, names in os.walk(root):
                        for name in names:
                            path = os.path.join(top, name)
                            with open(path) as f:
                                found[os.path.relpath(path, root)] = (
                                    f.read(), os.stat(path).st_mtime)
                    return found

                git("init", "-q")
                write(".gitignore", "*.log\n", 1000)
                write("src/kept.rs", "kept\n", 1000)
                write("src/edited.rs", "old\n", 1000)
                write("gone.rs", "gone\n", 1000)
                git("add", "-A")
                git("commit", "-q", "-m", "base")
                write("src/edited.rs", "new\n", 3000)
                write("src/added.rs", "added\n", 4000)
                write("run.log", "ignored\n", 5000)
                write("work/target-change/stale", "build output\n", 6000)
                os.remove("gone.rs")
                dest = os.path.join("work", "src")

                perf_pairs.export_tree("HEAD", dest)
                base = tree(dest)
                self.assertEqual(sorted(base), [".gitignore", "gone.rs", "src/edited.rs",
                                                "src/kept.rs"])
                self.assertEqual(base["src/edited.rs"][0], "old\n")
                # Every file carries the commit's time.
                self.assertEqual(len({mtime for _, mtime in base.values()}), 1)

                # The working tree replaces the base at the same path: edits
                # and untracked files in, deleted and ignored files out, and
                # nothing from the (here unignored) work directory, each file
                # with its own time.
                perf_pairs.export_worktree(dest, "work")
                self.assertEqual(tree(dest), {
                    ".gitignore": ("*.log\n", 1000),
                    "src/added.rs": ("added\n", 4000),
                    "src/edited.rs": ("new\n", 3000),
                    "src/kept.rs": ("kept\n", 1000),
                })

                # Exporting the base again restores its files and times.
                perf_pairs.export_tree("HEAD", dest)
                self.assertEqual(tree(dest), base)
            finally:
                os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
