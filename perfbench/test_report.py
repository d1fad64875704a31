"""Tests of the metric arithmetic in report.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import report


class NoSubtractedRates(unittest.TestCase):
    def test_baseline_slower_than_run_is_unmeasurable(self):
        # deep-1m in BENCH_scale.json: the uninstrumented baseline took
        # longer than the detection run it was subtracted from
        run, base = [6.5, 6.6], [7.3, 7.4]
        self.assertEqual(report.difference(run, base), report.UNMEASURABLE)

    def test_difference_inside_the_spread_is_unmeasurable(self):
        self.assertEqual(report.difference([1.05, 1.30], [1.0, 1.1]), report.UNMEASURABLE)

    def test_difference_beyond_the_spread_is_a_number(self):
        self.assertAlmostEqual(report.difference([2.0, 2.1], [1.0, 1.05]), 1.025)

    def test_share_smaller_than_its_spread_is_unmeasurable(self):
        self.assertEqual(report.share([0.01, 0.05], 10.0), report.UNMEASURABLE)
        self.assertAlmostEqual(report.share([2.0, 2.2], 10.0), 0.21)


class TraceOverhead(unittest.TestCase):
    def raw(self, untraced, traced):
        def pass_(t, w):
            return {"traced": t, "wall_s": w, "events": [], "counts": {}, "ratios": [], "ops": []}

        passes = [pass_(False, untraced[0]), pass_(True, traced[0]), pass_(False, untraced[1]), pass_(True, traced[1])]
        return {"passes": passes, "compile_s": 0.01, "extras": {}}

    def test_overhead_inside_the_spread_is_clamped_and_flagged(self):
        m, _ = report.per_layer(self.raw([10.0, 11.0], [10.5, 10.2]))
        self.assertEqual(m["obs.trace_overhead_s"], 0.0)
        self.assertEqual(m["obs.trace_overhead_measurable"], 0.0)

    def test_overhead_beyond_the_spread_is_a_number(self):
        m, _ = report.per_layer(self.raw([10.0, 10.1], [12.0, 12.1]))
        self.assertAlmostEqual(m["obs.trace_overhead_s"], 2.0)
        self.assertEqual(m["obs.trace_overhead_measurable"], 1.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans_add_up_to_the_root(self):
        ev = [
            ["op", 0, 1000, 0],
            ["core.repair", 100, 800, 1],
            ["detect", 150, 500, 2],
            ["sdpst-build", 160, 400, 3],
            ["iteration", 700, 100, 2],
        ]
        st = report.self_times(ev)
        self.assertAlmostEqual(st["other_s"], 200e-9)
        self.assertAlmostEqual(st["core.repair_s"], 300e-9)  # iteration folds in
        self.assertAlmostEqual(st["core.detect_s"], 100e-9)
        self.assertAlmostEqual(st["sdpst.build_s"], 400e-9)
        self.assertAlmostEqual(sum(st.values()), 1000e-9)

    def test_execution_under_a_bare_call_is_the_call(self):
        ev = [["op", 0, 100, 0], ["rt.interp", 0, 90, 1], ["sdpst-build", 5, 80, 2]]
        st = report.self_times(ev)
        self.assertAlmostEqual(st["rt.interp_s"], 90e-9)
        self.assertNotIn("sdpst.build_s", st)

    def test_overlapping_requests_share_the_time_they_overlap(self):
        ev = [["serve.request", 0, 100, 0], ["serve.request", 50, 100, 0]]
        self.assertAlmostEqual(report.self_times(ev)["serve.request_s"], 150e-9)
        self.assertAlmostEqual(report.union_s(ev), 150e-9)


class Percentiles(unittest.TestCase):
    def test_p90_keeps_ten_samples_beyond_it(self):
        xs = list(range(1, 101))
        v, p, n = report.percentile(xs, 90)
        self.assertEqual((p, n), (90.0, 100))
        self.assertEqual(sum(1 for x in xs if x > v), 10)
        v, p, n = report.percentile(list(range(1, 121)), 95)
        self.assertAlmostEqual(p, 100.0 * 110 / 120)

    def test_few_samples_are_interpolated(self):
        self.assertAlmostEqual(report.percentile([1.0, 2.0], 50)[0], 1.5)
        self.assertEqual(report.percentile([3.0], 90)[0], 3.0)


class Determinism(unittest.TestCase):
    def raw(self, second_count):
        p = {"counts": {"detector.races": 4, "serve.cache_hits": 1}, "ratios": [0.5]}
        q = {"counts": {"detector.races": second_count, "serve.cache_hits": 2}, "ratios": [0.5]}
        return {"passes": [p, q]}

    def test_equal_counts_pass_and_timing_dependent_ones_are_ignored(self):
        self.assertEqual(report.determinism_failures(self.raw(4)), [])

    def test_a_changed_count_is_reported(self):
        self.assertEqual(len(report.determinism_failures(self.raw(5))), 1)


if __name__ == "__main__":
    unittest.main()
