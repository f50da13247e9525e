"""Tests of the benchmark's own arithmetic and accounting.

    python3 -m unittest discover -s perfbench/tests

The last test builds the harness (as run.py does) and kills a daemon
in the middle of a run."""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics as M  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(M.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(M.percentile([5], 99), 5)
        self.assertAlmostEqual(M.percentile(list(range(1, 101)), 99), 99.01)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(M.tail_pct(12))
        for n in (13, 50, 100, 1000, 1100, 1101, 5000):
            pct = M.tail_pct(n)
            self.assertGreaterEqual(M.beyond(n, pct), M.MIN_BEYOND, n)
            self.assertLessEqual(pct, 99.0)
        self.assertLess(M.tail_pct(1100), 99.0)
        self.assertEqual(M.tail_pct(1101), 99.0)

    def test_beyond_counts_samples_above_both_ranks(self):
        # 1001 samples: p99 interpolates ranks 990 and 991 (0-based);
        # only ranks 992..1000 lie wholly beyond it.
        self.assertEqual(M.beyond(1001, 99.0), 9)
        self.assertEqual(M.beyond(1101, 99.0), 10)

    def test_tail_percentile_barely_moves_with_the_sample_count(self):
        # Serve slices hold about 1000 requests: the tail stays within a
        # fifth of a percentile of p99 whatever the rate.
        self.assertGreater(M.tail_pct(900), 98.7)
        self.assertEqual(M.tail_pct(5000), 99.0)


class ZeroSteal(unittest.TestCase):
    def test_fits_a_line_to_zero_steal(self):
        stolen = [0.05, 0.1, 0.2, 0.3]
        p99 = [13 + 48 * s for s in stolen]
        value, how = M.at_zero_steal(stolen, p99, rises=True)
        self.assertEqual(how, "fit")
        self.assertAlmostEqual(value, 13.0)
        rate = [1000 - 600 * s for s in stolen]
        value, how = M.at_zero_steal(stolen, rate, rises=False)
        self.assertAlmostEqual(value, 1000.0)

    def test_steal_that_does_not_vary_says_nothing(self):
        # All units equally calm (or equally stolen from): the median.
        self.assertEqual(M.at_zero_steal([0, 0.01, 0.005], [9, 10, 30],
                                         rises=True), (10, "median"))
        self.assertEqual(M.at_zero_steal([0.3], [30], rises=True),
                         (30, "median"))

    def test_a_slope_steal_cannot_cause_says_nothing(self):
        # Latency falling, or a rate rising, as more is stolen is noise.
        self.assertEqual(M.at_zero_steal([0, 0.1, 0.2], [14, 12, 10],
                                         rises=True), (12, "median"))
        self.assertEqual(M.at_zero_steal([0, 0.1, 0.2], [900, 950, 1000],
                                         rises=False), (950, "median"))
        # Nor does a fit that leaves no time at zero steal.
        self.assertEqual(M.at_zero_steal([0.4, 0.5], [1, 100], rises=True),
                         (50.5, "median"))

    def test_slice_groups_keep_whole_slices_only(self):
        done = [0.1e9, 0.9e9, 1.5e9, 2.2e9, 2.9e9]
        self.assertEqual(M.slice_groups(done, [1, 2, 3, 4, 5], 2),
                         [[1, 2], [3]])
        self.assertEqual(M.slice_groups(done, [1, 2, 3, 4, 5], 1, 3.0),
                         [[1, 2, 3, 4, 5]])


class FailRatio(unittest.TestCase):
    def test_counts_every_kind_of_failure(self):
        self.assertEqual(M.fail_ratio(100), 0.0)
        self.assertEqual(M.fail_ratio(100, lost=1), 0.01)
        self.assertEqual(M.fail_ratio(100, rejected=2), 0.02)
        self.assertEqual(M.fail_ratio(100, degraded=3), 0.03)
        self.assertEqual(M.fail_ratio(100, error=4), 0.04)
        self.assertEqual(M.fail_ratio(100, check_failures=5), 0.05)
        self.assertEqual(M.fail_ratio(10, 1, 1, 1, 1, 1), 0.5)

    def test_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            M.fail_ratio(0)


class SelfTime(unittest.TestCase):
    def test_subtracts_children(self):
        self.assertEqual(M.self_time(0, 100, []), 100)
        self.assertEqual(M.self_time(0, 100, [(10, 20), (30, 50)]), 70)

    def test_overlapping_children_count_once(self):
        self.assertEqual(M.self_time(0, 100, [(10, 40), (30, 60)]), 50)
        self.assertEqual(M.self_time(0, 100, [(10, 60), (20, 30)]), 50)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(M.self_time(10, 20, [(0, 15), (18, 40)]), 3)
        self.assertEqual(M.self_time(10, 20, [(30, 40)]), 10)
        self.assertEqual(M.self_time(0, 10, [(0, 50)]), 0)

    def test_service_breakdown(self):
        def ev(name, ts, dur, rung=None):
            args = {"trace_id": "t7"}
            if rung is not None:
                args["rung"] = rung
            return {"name": name, "ts": ts, "dur": dur, "args": args}
        events = [ev("request", 0, 100), ev("queue", 0, 10),
                  ev("rung", 10, 80, 0), ev("build", 10, 30, 0),
                  ev("sched", 40, 20, 0), ev("verify", 95, 10, 0),
                  {"name": "request", "ts": 0, "dur": 5,
                   "args": {"trace_id": "other"}}]
        b = M.service_breakdown(events, [[7, 0, 150_000, 11, 4]])
        self.assertEqual(b["requests"], 1)
        self.assertEqual(b["queue_ns"], [10_000])
        # rung [10, 90): build and sched cover 50, verify is outside.
        self.assertEqual(b["rung_self_ns"], [30_000])
        self.assertEqual(b["transport_ns"], [50_000])


class KilledDaemon(unittest.TestCase):
    def test_bounded_failure_not_a_hang(self):
        bdir = run.build()
        rundir = os.path.join(run.ROOT, ".bench_run", "test-killed-daemon")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        raw = os.path.join(rundir, "raw.json")
        t0 = time.monotonic()
        proc = subprocess.run(
            [os.path.join(bdir, "perfbench_harness"),
             "--workload", "serve-inproc", "--seed", "5", "--seconds", "5",
             "--trace", "0", "--sched91",
             os.path.join(bdir, "tools", "sched91"), "--out", raw,
             "--kill-daemon-after-ms", "300"],
            cwd=rundir, capture_output=True, timeout=120)
        self.assertEqual(proc.returncode, 1)
        self.assertLess(time.monotonic() - t0, 60)
        with open(raw) as f:
            rec = json.load(f)
        self.assertIn("closed", rec["error"])
        self.assertFalse(rec["check"]["drained"])
        _, failures, attempted, (ratio, _) = run.end_to_end(rec)
        self.assertGreater(rec["timed"]["lost"], 0)
        self.assertGreater(failures, 0)
        self.assertGreater(ratio, 0)
        # No process is left running in the run directory.
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                cwd = os.readlink("/proc/%s/cwd" % pid)
            except OSError:
                continue
            self.assertNotEqual(cwd, rundir, "process %s left" % pid)
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
