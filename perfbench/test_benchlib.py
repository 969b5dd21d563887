"""Self-test of the benchmark's helpers: percentile and tail choice,
operation accounting, the digest and the comparison rule.

    python3 perfbench/run.py --selftest
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def cell(**kw):
    base = {"prefetcher": "gaze", "level": "l1", "cores": 1,
            "workload": "mcf", "ipc": 0.5, "base_ipc": 0.4,
            "cycles_executed": 90, "cycles_skipped": 10, "pf_issued": 10,
            "pf_filled": 8, "pf_useful": 6, "pf_late": 1,
            "llc_miss_base": 100, "llc_miss_pf": 60}
    base.update(kw)
    return base


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 95), 95)
        self.assertEqual(benchlib.percentile(xs, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        for n in (40, 57, 200, 999, 10000):
            p = benchlib.tail_percentile(n)
            beyond = sum(1 for i in range(1, n + 1)
                         if i > benchlib.percentile(range(1, n + 1), p))
            self.assertGreaterEqual(beyond, 10)

    def test_timing_summary(self):
        s = benchlib.timing_summary([float(i) for i in range(1, 201)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["median"], 100.5)
        self.assertEqual(s["tail_p"], 95.0)
        self.assertEqual(s["tail"], 190.0)
        self.assertNotIn("tail", benchlib.timing_summary([1.0, 2.0]))


class OpsTest(unittest.TestCase):
    def test_counts_and_reasons(self):
        ops = benchlib.Ops()
        ops.attempt(21)
        ops.attempt()
        ops.fail("cell a")
        ops.fail("whole job", 5)
        self.assertEqual((ops.attempted, ops.failed), (22, 6))
        self.assertEqual(ops.reasons, ["cell a", "whole job"])

    def test_invariants(self):
        self.assertEqual(benchlib.invariant_failures(cell(), 0), [])
        # Useful above filled is allowed within the warmup window only.
        over = cell(pf_useful=12)
        self.assertEqual(benchlib.invariant_failures(over, 4), [])
        self.assertEqual(len(benchlib.invariant_failures(over, 3)), 1)
        self.assertFalse(benchlib.strictly_ordered(over))
        self.assertEqual(len(benchlib.invariant_failures(
            cell(pf_filled=20), 5)), 1)
        self.assertEqual(len(benchlib.invariant_failures(
            cell(ipc=0.0), 0)), 1)


class DigestTest(unittest.TestCase):
    def test_order_independent_and_sensitive(self):
        a = benchlib.cell_row(cell())
        b = benchlib.cell_row(cell(workload="lbm"))
        self.assertEqual(benchlib.digest([a, b]), benchlib.digest([b, a]))
        changed = benchlib.cell_row(cell(pf_late=2))
        self.assertNotEqual(benchlib.digest([a, b]),
                            benchlib.digest([changed, b]))
        self.assertEqual(a["cycles"], 100)

    def test_sources_agree(self):
        # A report cell has no cycles; they come from the cache record.
        report = cell()
        del report["cycles_executed"], report["cycles_skipped"]
        self.assertEqual(benchlib.cell_row(report, cycles=100),
                         benchlib.cell_row(cell()))
        self.assertEqual(benchlib.row_key(benchlib.cell_row(cell())),
                         ("gaze", "l1", 1, "mcf"))


class CompareTest(unittest.TestCase):
    def result(self, **prov):
        p = {"nproc": 4, "cpu_model": "x", "compiler": "gcc 12",
             "build_type": "Release", "gaze_obs": 1, "workload": "w",
             "trace": 0, "seed": 1}
        p.update(prov)
        return {"provenance": p, "digest": "d",
                "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}

    def test_same_config_prints_ratios(self):
        after = self.result()
        after["metrics"]["wall_s"]["value"] = 1.0
        lines = benchlib.compare(self.result(), after)
        self.assertIn("x0.5000", lines[0])
        self.assertIn("same", lines[-1])

    def test_refuses_across_host_or_config(self):
        for field, value in (("nproc", 1), ("compiler", "clang"),
                             ("build_type", "Debug"), ("gaze_obs", 0),
                             ("seed", 2), ("cpu_model", "y")):
            lines = benchlib.compare(self.result(),
                                     self.result(**{field: value}))
            self.assertEqual(len(lines), 1)
            self.assertTrue(lines[0].startswith("REFUSED"), field)
            self.assertIn(field, lines[0])
            self.assertNotIn("x0.", lines[0])


if __name__ == "__main__":
    unittest.main()
