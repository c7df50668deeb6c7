"""Tests of the percentile helper, the metric-name rule and span coverage.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p99 of n samples has n - ceil(0.99 n) samples beyond it.
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1000)), 99), 989)
        self.assertEqual(stats.percentile(list(range(1000, 0, -1)), 99), 990)
        # p50 needs 20.
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(20)), 50), 9)
        self.assertIsNone(stats.percentile([], 50))

    def test_nearest_rank(self):
        xs = [float(x) for x in range(1, 101)]
        self.assertEqual(stats.percentile(xs, 50), 50.0)
        self.assertEqual(stats.percentile(xs, 90), 90.0)
        self.assertEqual(stats.percentile(xs, 0.5), 1.0)

    def test_rejects_bad_q(self):
        for q in (0, 100, -1, 150):
            with self.assertRaises(ValueError):
                stats.percentile([1.0] * 100, q)


class NameTest(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "symmetry.verify_s", "plane.pinned_ratio",
                     "a-b.c_d", "9lives", "x" * 64):
            self.assertEqual(stats.check_name(name), name)

    def test_invalid(self):
        for name in ("", "_lead", ".lead", "sp ace", "µs", "a/b", "x" * 65,
                     "semi;colon", None, 3):
            with self.assertRaises(ValueError):
                stats.check_name(name)


class CoverageTest(unittest.TestCase):
    def test_union_of_children(self):
        self.assertAlmostEqual(stats.coverage((0, 10), [(0, 4), (6, 10)]), 0.8)
        # Overlaps count once; parts outside the root are clipped.
        self.assertAlmostEqual(
            stats.coverage((0, 10), [(-5, 3), (2, 5), (4, 6), (9, 20)]), 0.7)
        self.assertEqual(stats.coverage((0, 10), []), 0.0)


if __name__ == "__main__":
    unittest.main()
