"""Self-tests for perfbench's statistics, /proc parsers and span
arithmetic. Run: python3 perfbench/test_benchlib.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from benchlib import Span  # noqa: E402


class Selection(unittest.TestCase):
    def test_median_odd_even_and_unsorted(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(benchlib.median([7]), 7)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([5, 1, 3], 0), 1)
        self.assertEqual(benchlib.percentile(list(reversed(values)), 90), 90)

    def test_samples_beyond_a_percentile(self):
        self.assertEqual(benchlib.beyond(1000, 99), 10)
        self.assertEqual(benchlib.beyond(999, 99), 9)  # rank ceil(989.01) = 990
        self.assertEqual(benchlib.beyond(100, 99), 1)
        self.assertEqual(benchlib.beyond(25, 60), 10)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 needs 1000 samples: of 999, ceil(0.99 * 999) = 990 leaves
        # only 9 beyond it, so p98 is the tail.
        self.assertEqual(benchlib.tail_percentile(1000, cap=99), 99)
        self.assertEqual(benchlib.tail_percentile(999, cap=99), 98)
        self.assertEqual(benchlib.tail_percentile(400, cap=99), 97)
        self.assertEqual(benchlib.tail_percentile(25), 60)
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertIsNone(benchlib.tail_percentile(19))
        for cap in (90, 99):
            for n in (20, 25, 100, 400, 999, 1000, 4664):
                p = benchlib.tail_percentile(n, cap=cap)
                self.assertLessEqual(p, cap)
                self.assertGreaterEqual(benchlib.beyond(n, p), benchlib.TAIL_BEYOND)
                if p < cap:
                    self.assertLess(benchlib.beyond(n, p + 1), benchlib.TAIL_BEYOND)

    def test_tail_is_capped_at_p90(self):
        self.assertEqual(benchlib.TAIL_CAP, 90)
        for n in (100, 400, 1000, 5000):
            self.assertEqual(benchlib.tail_percentile(n), 90)
        self.assertEqual(benchlib.tail_percentile(99), 89)  # ceil(89.1) = 90 leaves 9


class ProcParsers(unittest.TestCase):
    def test_steal_share_from_proc_stat(self):
        text = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
        self.assertEqual(benchlib.parse_cpu_times(text), (35, 1000))
        self.assertEqual(benchlib.parse_cpu_times("cpu  1 2 3 4\n"), (0, 10))
        with self.assertRaises(ValueError):
            benchlib.parse_cpu_times("cpu0 1 2 3\n")
        self.assertAlmostEqual(benchlib.steal_share((35, 1000), (60, 1500)), 0.05)
        self.assertEqual(benchlib.steal_share((35, 1000), (35, 1000)), 0.0)

    def test_process_cpu_seconds_survives_odd_command_names(self):
        fields = ["S"] + ["0"] * 10 + ["250", "50"] + ["0"] * 30
        text = "4242 (bc) count (d)) " + " ".join(fields)
        self.assertEqual(benchlib.parse_proc_stat_cpu(text, 100), 3.0)

    def test_vm_hwm(self):
        text = "Name:\tbcountd\nVmPeak:\t 9000 kB\nVmHWM:\t   17988 kB\nVmRSS:\t 100 kB\n"
        self.assertEqual(benchlib.parse_vm_hwm_kb(text), 17988)
        with self.assertRaises(ValueError):
            benchlib.parse_vm_hwm_kb("Name:\tx\n")

    def test_live_readers_on_this_process(self):
        steal, total = benchlib.read_cpu_times()
        self.assertGreaterEqual(total, steal)
        self.assertGreaterEqual(benchlib.process_cpu_s(os.getpid()), 0)
        self.assertGreater(benchlib.process_hwm_mb(os.getpid()), 0)


class Spans(unittest.TestCase):
    def test_parse_round_trip(self):
        spans = benchlib.parse_spans("1\t0\tsim.round\t10\t30\t4\n2\t1\tcore.adversary\t25\t29\t4\n")
        self.assertEqual([(s.id, s.parent, s.name, s.duration, s.request) for s in spans],
                         [(1, 0, "sim.round", 20, 4), (2, 1, "core.adversary", 4, 4)])

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(benchlib.covered(0, 100, []), 0)
        self.assertEqual(benchlib.covered(0, 100, [(10, 20), (15, 30), (50, 60)]), 30)
        self.assertEqual(benchlib.covered(0, 100, [(-5, 10), (95, 120)]), 15)
        self.assertEqual(benchlib.covered(0, 100, [(20, 30), (20, 30)]), 10)
        self.assertEqual(benchlib.covered(0, 100, [(40, 40), (70, 60)]), 0)

    def test_self_time_subtracts_children_not_grandchildren(self):
        spans = [
            Span(1, 0, "request.session.step", 0, 100, 0),
            Span(2, 1, "sim.round", 5, 45, 0),
            Span(3, 2, "core.adversary", 40, 44, 0),
            Span(4, 1, "sim.round", 45, 85, 0),
            Span(5, 1, "sim.snapshot", 85, 95, 0),
        ]
        kids = benchlib.children_of(spans)
        self.assertEqual(benchlib.self_time(spans[0], kids), 100 - 90)
        self.assertEqual(benchlib.self_time(spans[1], kids), 40 - 4)
        self.assertEqual(benchlib.self_time(spans[3], kids), 40)
        self.assertEqual(benchlib.self_time(spans[2], kids), 4)


if __name__ == "__main__":
    unittest.main()
