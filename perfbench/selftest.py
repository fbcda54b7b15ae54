"""Self-tests for the benchmark's own helpers.

Run from the repository root:  python3 perfbench/selftest.py
"""

import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Sample, end_to_end, percentile, tail_percentile  # noqa: E402
from tracer import coverage, layer_metrics, new_span, self_times  # noqa: E402
from workloads import WORKLOADS, Job, gate  # noqa: E402


def span(name, start, end, parent=-1, error=None, **sizes):
    s = new_span(name, start, end, parent)
    s["error"], s["sizes"] = error, sizes
    return s


class PercentileTest(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(1000), 99)
        self.assertIsNone(tail_percentile(10))
        for n in (11, 26, 78, 100, 257):
            xs = list(range(n))
            p = tail_percentile(n)
            self.assertGreaterEqual(sum(x > percentile(xs, p) for x in xs), 10)
            higher = p + 100 / n
            self.assertLess(sum(x > percentile(xs, higher) for x in xs), 10)

    def test_interpolates_between_ranks(self):
        self.assertEqual(percentile([5, 1, 3], 50), 3)
        self.assertEqual(percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(percentile([7], 90), 7)


class EndToEndTest(unittest.TestCase):
    def test_fastest_time_per_job_in_reference_units(self):
        def sample(job, wall, ref):
            return Sample(job, wall, wall / 2, True, ref=ref)

        passes = [[sample("a", 3.0, 0.01), sample("b", 1.0, 0.02)],
                  [sample("a", 2.0, 0.02), sample("b", 1.5, 0.02)],
                  [sample("a", 2.5, 0.03), sample("b", 1.2, 0.02)]]
        workload = SimpleNamespace(cli=False)
        metrics, raw = end_to_end(workload, passes, setup_s=0.5)
        self.assertAlmostEqual(raw["wall_s"], 3.0)  # 2.0 + 1.0
        self.assertAlmostEqual(raw["cpu_s"], 1.5)
        self.assertAlmostEqual(raw["reference_ms"], 20.0)
        self.assertAlmostEqual(metrics["wall_ref"], 150.0)
        self.assertAlmostEqual(metrics["cpu_ref"], 75.0)
        self.assertAlmostEqual(metrics["job_ref_p50"], raw["job_ms_p50"] / 20.0)
        self.assertEqual(metrics["setup_s"], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("job", 0.0, 10.0),
            span("a", 1.0, 3.0, parent=0),
            span("b", 4.0, 6.0, parent=0),
            span("b.inner", 4.5, 5.0, parent=2),
            span("b.inner2", 5.0, 5.5, parent=2),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 0.5, 0.5])

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0.0, 4.0), span("c1", 1.0, 3.0, 0), span("c2", 2.0, 5.0, 0)]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_coverage_of_top_level_spans(self):
        spans = [span("startup", 0.0, 1.0), span("run", 1.0, 8.0), span("x", 2.0, 3.0, 1)]
        self.assertAlmostEqual(coverage(spans, 10.0), 0.8)

    def test_wasted_rref_and_search_classes(self):
        refused = [span("codes.minimum_distance", 0.0, 1.0, error="BudgetExceeded"),
                   span("codes.code_instance", 0.0, 0.9, 0, k=5, m=9, q=3),
                   span("codes.rref", 0.2, 0.9, 1, cells=45)]
        searched = [span("codes.minimum_distance", 0.0, 2.0),
                    span("codes.code_instance", 0.0, 1.0, 0, k=3, m=9, q=3),
                    span("codes.rref", 0.5, 1.0, 1, cells=27)]
        m = layer_metrics([(0, refused), (1, searched)])
        self.assertAlmostEqual(m["codes.rref.wasted_ms"], 700.0)
        self.assertAlmostEqual(m["codes.rref.ms"], 1200.0)
        self.assertEqual(m["codes.rref.calls"], 2)
        self.assertEqual(m["codes.search.classes"], (3**3 - 1) // 2)
        self.assertAlmostEqual(m["codes.search.ms"], 1100.0)
        self.assertEqual(m["codes.search.dual_share"], 0.0)


class GateTest(unittest.TestCase):
    formulas = SimpleNamespace(double=lambda x: 2 * x)

    def test_rejects_wrong_pinned_value(self):
        job = Job("j", "dim", "cycle", (4,), 9, q=5, d=2)
        self.assertTrue(gate(job, 9, self.formulas))
        self.assertFalse(gate(job, 8, self.formulas))
        wrong = Job("j", "dim", "cycle", (4,), 10, q=5, d=2)
        self.assertFalse(gate(wrong, 9, self.formulas))

    def test_workload_shapes(self):
        for w in WORKLOADS.values():
            names = [j.name for j in w.jobs]
            self.assertEqual(len(names), len(set(names)), w.name)  # per-job minima key on names
            self.assertEqual(len(names) % 2, 1, w.name)  # p50 falls on one job

    def test_closed_form_expectation(self):
        job = Job("j", "dim", "cycle", (4,), lambda fm: fm.double(21), q=5, d=2)
        self.assertTrue(gate(job, 42, self.formulas))
        self.assertFalse(gate(job, 41, self.formulas))


if __name__ == "__main__":
    unittest.main()
