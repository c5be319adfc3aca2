"""Tests of the benchmark's own arithmetic (python3 perfbench/run.py
--self-test, or python3 -m unittest discover perfbench)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchmath as bm  # noqa: E402

MS = 1_000_000  # ns


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bm.nearest_rank(values, 50), 50)
        self.assertEqual(bm.nearest_rank(values, 99), 99)
        self.assertEqual(bm.nearest_rank(values, 99.5), 100)
        self.assertEqual(bm.nearest_rank([7], 99.9), 7)

    def test_needs_ten_samples_beyond(self):
        # 1000 samples: the 990th is p99 and 10 lie beyond it.
        self.assertEqual(bm.samples_beyond(1000, 99), 10)
        self.assertEqual(bm.tail_percentile(1000), 99.0)
        # One fewer sample leaves only 9 beyond p99: the next rung down.
        self.assertEqual(bm.samples_beyond(999, 99), 9)
        self.assertEqual(bm.tail_percentile(999), 90.0)
        self.assertEqual(bm.tail_percentile(10_000), 99.9)
        self.assertEqual(bm.tail_percentile(20), 50.0)
        self.assertIsNone(bm.tail_percentile(19))

    def test_tail_reports_percentile_value_and_count(self):
        values = [float(v) for v in range(200, 0, -1)]  # unsorted input
        p, value, n = bm.tail(values)
        self.assertEqual((p, n), (90.0, 200))
        self.assertEqual(value, 180.0)
        with self.assertRaises(ValueError):
            bm.tail([1.0] * 5)


class DueTimeLatency(unittest.TestCase):
    def test_timed_from_due_not_sent(self):
        # Due at 0, sent 5 ms late, delivered at 20 ms: 20 ms, not 15.
        records = [[0, 0, 5 * MS, 20 * MS, bm.DELIVERED]]
        self.assertEqual(bm.due_latencies_ms(records, 0, 100 * MS), [20.0])
        self.assertEqual(bm.lateness_ms(records, 0, 100 * MS), [5.0])

    def test_window_status_and_class_filters(self):
        records = [
            [0, -1 * MS, 0, 10 * MS, bm.DELIVERED],   # due before window
            [0, 1 * MS, 1 * MS, 11 * MS, bm.DELIVERED],
            [1, 2 * MS, 2 * MS, 14 * MS, bm.DELIVERED],
            [0, 3 * MS, 3 * MS, 9 * MS, bm.WRONG],    # wrong bits: no sample
            [0, 4 * MS, 4 * MS, -1, bm.SHED],
            [0, 50 * MS, 50 * MS, 60 * MS, bm.DELIVERED],  # due after window
        ]
        self.assertEqual(bm.due_latencies_ms(records, 0, 50 * MS),
                         [10.0, 12.0])
        self.assertEqual(bm.due_latencies_ms(records, 0, 50 * MS, cls=1),
                         [12.0])


class SelfTime(unittest.TestCase):
    def test_children_coverage_is_subtracted_once(self):
        spans = [
            ["parent", 0, 100, -1],
            ["a", 10, 30, 0],
            ["b", 20, 40, 0],        # overlaps a: covered 10..40 once
            ["c", 50, 60, 0],
            ["grandchild", 52, 58, 3],
        ]
        own = bm.self_times(spans)
        self.assertEqual(own[0], 100 - 30 - 10)
        self.assertEqual(own[3], 10 - 6)
        self.assertEqual(own[4], 6)

    def test_child_outside_parent_is_clipped(self):
        spans = [["p", 0, 10, -1], ["c", 5, 25, 0]]
        self.assertEqual(bm.self_times(spans)[0], 5)

    def test_union_length(self):
        self.assertEqual(bm.union_length([]), 0)
        self.assertEqual(bm.union_length([(0, 5), (5, 7), (10, 11)]), 8)


def raw_run(records, deliveries, cpu=(1.0, 1.5, 2.0), **extra):
    # No steal; 100 busy ticks in each second.
    marks = [[0, cpu[0], 0, 0, 0], [1_000 * MS, cpu[1], 0, 0, 100],
             [2_000 * MS, cpu[2], 0, 0, 200]]
    raw = {
        "workload": "t", "seed": 1, "seconds": 1, "trace": 0,
        "classes": ["interactive", "bulk"],
        "setup_s": [0.3, 0.1, 0.2],
        "window_start_ns": 0, "window_end_ns": 2_000 * MS,
        "trace_from_ns": 1_000 * MS,
        "cpu_window_start_s": cpu[0], "cpu_trace_from_s": cpu[1],
        "cpu_window_end_s": cpu[2],
        "cpu_marks": marks, "peak_rss_mb": 12.5, "mismatches": 0, "stats_unbounded": 0,
        "records": records, "deliveries": deliveries,
        "sessions": [{"reconciles": True, "failed": False,
                      "delivered_insonifications":
                          sum(1 for r in records if r[4] == bm.DELIVERED)}],
    }
    raw["attempted"] = len(records)
    raw.update(extra)
    return raw


class RatioBases(unittest.TestCase):
    def test_compounded_volume_counts_once_as_delivered(self):
        deliveries = [[1 * MS, 100, 4], [2 * MS, 100, 1],
                      [3_000 * MS, 100, 1]]  # outside the window
        self.assertEqual(bm.window_voxels(deliveries, 0, 2_000 * MS),
                         (200, 500))

    def test_slices_follow_the_marks(self):
        # [t, cpu_s, steal, idle, total]: the second slice has 400 ticks,
        # 200 of them idle and 50 stolen, so a quarter of the busy time
        # was stolen.
        marks = [[0, 0.0, 0, 0, 0], [400, 0.1, 0, 0, 50],
                 [1_000, 0.2, 0, 0, 100], [1_900, 0.3, 30, 150, 400],
                 [2_100, 0.4, 50, 200, 500], [2_500, 0.5, 60, 210, 600]]
        self.assertEqual(bm.slices(marks, 0, 3_000, slice_ns=1_000),
                         [(0, 1_000, 0.2, 0.0), (1_000, 2_100, 0.2, 0.25)])

    def test_steal_is_reported_not_applied(self):
        records = [[0, i * 100 * MS, i * 100 * MS, i * 100 * MS + 10 * MS,
                    bm.DELIVERED] for i in range(20)]
        deliveries = [[r[3], 1_000, 1] for r in records]
        raw = raw_run(records, deliveries)
        no_steal = bm.sliced(raw, 0, 2_000 * MS)
        # A fifth of each second's busy time stolen: the wall-clock rate,
        # CPU cost and latency read exactly as they did without steal; the
        # steal share is its own figure.
        raw["cpu_marks"] = [[0, 1.0, 0, 0, 0], [1_000 * MS, 1.5, 20, 0, 100],
                            [2_000 * MS, 2.0, 40, 0, 200]]
        self.assertEqual(bm.sliced(raw, 0, 2_000 * MS), no_steal)
        rate, cost, p50 = no_steal[0]
        self.assertAlmostEqual(rate, 10_000)
        self.assertAlmostEqual(cost, 0.5 / 0.01)
        self.assertEqual(p50, [10.0, None])  # the bulk class sent nothing
        self.assertAlmostEqual(bm.steal_share(raw["cpu_marks"], 0, 2_000 * MS),
                               0.2)

    def test_latency_is_the_geometric_mean_of_class_medians(self):
        # Two slices; class 0 medians 10 and 14 (median 12), class 1
        # medians 30, then none (it delivered nothing in the second),
        # class 2 delivered nothing at all and is left out.
        self.assertAlmostEqual(bm.class_p50([[10.0, 30.0, None],
                                             [14.0, None, None]]),
                               (12.0 * 30.0) ** 0.5)
        self.assertAlmostEqual(bm.class_p50([[7.0], [9.0], [8.0]]), 8.0)

    def test_end_to_end_bases(self):
        # Frames due every 60 ms, each delivered 10 ms later: 17 volumes
        # land in the first 1 s slice and 13 in the second.
        records = [[0, i * 60 * MS, i * 60 * MS, i * 60 * MS + 10 * MS,
                    bm.DELIVERED] for i in range(30)]
        records.append([1, 40 * MS, 40 * MS, -1, bm.SHED])
        deliveries = [[r[3], 1_000, 1] for r in records if r[3] >= 0]
        metrics = bm.end_to_end(raw_run(records, deliveries))
        value = {k: v for k, (v, _) in metrics.items()}
        # Median of the slices' delivered voxels per second.
        self.assertAlmostEqual(value["voxels_per_s"], (17_000 + 13_000) / 2)
        # Each slice burns 0.5 CPU s over its delivered Mvoxels.
        self.assertAlmostEqual(value["cpu_s_per_mvoxel"],
                               (0.5 / 0.017 + 0.5 / 0.013) / 2)
        # The shed submit counts against delivery: 30 of 31 attempted.
        self.assertAlmostEqual(value["delivered_ratio"], 30 / 31)
        self.assertEqual(value["setup_s"], 0.2)  # median of the processes
        self.assertAlmostEqual(value["latency_p50_ms"], 10.0)
        tails = {k: v for k, (v, _) in bm.tails(
            raw_run(records, deliveries)).items()}
        self.assertEqual(tails["latency.tail_percentile"], 50.0)
        self.assertEqual(tails["latency.tail_samples"], 30)
        self.assertEqual(tails["latency.interactive.tail_samples"], 30)

    def test_correctness_counts_wrong_and_shed_as_failed(self):
        records = [[0, 0, 0, 5 * MS, bm.DELIVERED],
                   [0, 1, 1, 6 * MS, bm.WRONG],
                   [0, 2, 2, -1, bm.SHED]]
        raw = raw_run(records, [])
        correct, attempted, failed = bm.correctness(raw)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (3, 2))
        raw["records"] = [records[0], records[2]]
        self.assertFalse(bm.correctness(raw)[0])  # a record went missing
        raw["attempted"] = 2
        self.assertEqual(bm.correctness(raw), (True, 2, 1))
        raw["sessions"][0]["reconciles"] = False
        self.assertFalse(bm.correctness(raw)[0])

    def test_layer_split_bases(self):
        spans = [
            ["attribution", 0, 10_000, -1],
            ["layer.sweep", 0, 100, 0],
            ["layer.delay", 10, 60, 1],
            ["layer.capture", 60, 70, 1],   # the split's own plane copy
            ["layer.das", 100, 120, 0],     # replayed on the captured plane
            ["runtime.sweep", 200, 240, 0],
            ["service.submit", 1_000, 1_003, -1],
            ["service.poll", 2_000, 2_010, -1],
            ["bench.verify", 2_002, 2_008, 7],
        ]
        records = [[0, i * 60 * MS, i * 60 * MS, i * 60 * MS + 10 * MS,
                    bm.DELIVERED] for i in range(30)]
        deliveries = [[r[3], 1_000, 1] for r in records]
        raw = raw_run(records, deliveries, spans=spans, frame_voxels=[10],
                      c2_workers=[2], async_records=[[0, 0, 0, 100, 0]],
                      session_rss_mb=1.0, open_session_ms=[1.0],
                      close_session_ms=[2.0],
                      stats_ms=[1.0] * 20, threads_peak=4, backlog_max=2)
        value = {k: v for k, (v, _) in bm.per_layer(raw).items()}
        # One 10-voxel frame: delay 50 ns, DAS 20 ns, and the sweep's self
        # time (100 - 50 delay - 10 capture) minus DAS is scatter.
        self.assertEqual(value["delay.ns_per_voxel"], 5.0)
        self.assertEqual(value["das.ns_per_voxel"], 2.0)
        self.assertEqual(value["scatter.ns_per_voxel"], 2.0)
        # Shares exclude the capture the split adds: 50 of 90 ns.
        self.assertAlmostEqual(value["delay.share"], 50 / 90)
        # 90 ns single-thread against a 40 ns sweep on 2 workers.
        self.assertAlmostEqual(value["runtime.parallel_efficiency"],
                               90 / (40 * 2))
        self.assertAlmostEqual(value["runtime.queue_wait_ms"], (100 - 40) / 1e6)
        # The poll's self time excludes the benchmark's own bit check.
        self.assertAlmostEqual(value["service.poll_us"], 4 / 1e3)
        cpu_ns = 0.5 / 17_000 * 1e9  # untraced half, per beamformed voxel
        self.assertAlmostEqual(value["runtime.non_sweep_cpu_share"],
                               1 - 7 / cpu_ns)
        self.assertAlmostEqual(value["residual.cpu_share"], 1 - 9 / cpu_ns)
        self.assertAlmostEqual(value["trace.overhead"],
                               (0.5 / 13_000) / (0.5 / 17_000) - 1)

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 11.0, 10.0]
        q1, q3 = 9.5, 10.5  # statistics.quantiles, exclusive method
        self.assertAlmostEqual(bm.spread(values), (q3 - q1) / 10.0)


if __name__ == "__main__":
    unittest.main()
