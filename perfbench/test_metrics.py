"""Self-tests of the benchmark's own arithmetic (metrics.py).

Run with `python3 perfbench/test_metrics.py`; run.py also runs them before
every benchmark run and refuses to report when one fails.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), (50, 50))
        self.assertEqual(metrics.percentile(values, 99), (99, 1))
        self.assertEqual(metrics.percentile(values, 100), (100, 0))
        self.assertEqual(metrics.percentile([7], 99), (7, 0))
        self.assertEqual(metrics.percentile([], 50), (None, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 50), (3, 2))

    def test_ten_beyond_rule(self):
        # p99 of 1000 samples has exactly ten beyond it: supported.
        values = list(range(1000))
        self.assertEqual(metrics.supported_percentile(values, 99), 989)
        # One sample fewer leaves nine beyond: not supported.
        self.assertIsNone(metrics.supported_percentile(values[:999], 99))
        # The median needs twenty samples.
        self.assertEqual(metrics.supported_percentile(list(range(20)), 50), 9)
        self.assertIsNone(metrics.supported_percentile(list(range(19)), 50))

    def test_highest_supported(self):
        values = list(range(500))
        # 500 samples: p99.9 and p99 lack ten beyond, p95 has 25.
        self.assertEqual(metrics.highest_supported(values), (95, 474))
        self.assertEqual(metrics.highest_supported([1, 2, 3]), (None, None))

    def test_windowed_percentile(self):
        # Five slices of 1000 samples; one slice holds a burst of slow
        # samples. Each slice supports p99 on its own, so the burst is
        # voted out.
        quiet = list(range(1000))
        burst = list(range(900)) + [10000] * 100
        values = quiet * 2 + burst + quiet * 2
        self.assertEqual(metrics.windowed_percentile(values, 99), 989)
        self.assertEqual(metrics.supported_percentile(values, 99), 10000)
        # Neither a slice nor the whole has ten samples beyond p99.9.
        self.assertIsNone(metrics.windowed_percentile(values, 99.9))
        # A stall in every slice is kept.
        self.assertEqual(metrics.windowed_percentile(burst * 5, 99), 10000)
        # Slices too small for p99: the whole sample decides.
        self.assertEqual(metrics.windowed_percentile(quiet, 99), 989)
        self.assertIsNone(metrics.windowed_percentile(quiet[:999], 99))

    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2)


class RatioTest(unittest.TestCase):
    def test_carries_base(self):
        r = metrics.Ratio(115, 900)
        self.assertAlmostEqual(r.value, 115 / 900)
        self.assertEqual(r.base, 900)

    def test_empty_base(self):
        self.assertEqual(metrics.Ratio(0, 0).value, 0.0)
        self.assertEqual(metrics.per(10, 0), 0.0)
        self.assertEqual(metrics.per(10, 4), 2.5)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = {
            0: (-1, 0, 100),  # request
            1: (0, 10, 40),   # child
            2: (1, 15, 25),   # grandchild: counts against 1, not 0
            3: (0, 50, 90),   # child
        }
        self.assertEqual(metrics.self_times(spans),
                         {0: 30, 1: 20, 2: 10, 3: 40})

    def test_overlapping_children_count_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 60), 2: (0, 40, 80)}
        self.assertEqual(metrics.self_times(spans)[0], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = {0: (-1, 10, 20), 1: (0, 0, 15), 2: (0, 18, 30)}
        self.assertEqual(metrics.self_times(spans)[0], 3)

    def test_leaf_and_orphan(self):
        # A span whose parent was not recorded is its own root.
        spans = {5: (4, 0, 7)}
        self.assertEqual(metrics.self_times(spans), {5: 7})


if __name__ == "__main__":
    unittest.main()
