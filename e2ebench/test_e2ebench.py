"""Tests of e2ebench's statistics, attribution and metric tables.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""
import json
import statistics
import unittest
from pathlib import Path

import layers
import run
import stats

HERE = Path(__file__).resolve().parent


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))
        self.assertEqual(stats.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))
        values = [0.9, 1.3, 1.0, 1.1, 5.0, 1.2]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 5.0 / 5.0)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(1, 21))), (50.0, 10, 10, 20))
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90, 10, 100))
        self.assertEqual(stats.tail(list(range(1, 1001))),
                         (99.0, 990, 10, 1000))
        self.assertEqual(stats.tail(list(range(1, 10001))),
                         (99.9, 9990, 10, 10000))

    def test_metric_names(self):
        stats.check_metric_names(["wall_s", "serve.overhead_us_per_trial",
                                  "a-b.c_9"])
        for bad in ("", "wall s", "a/b", "p99%"):
            with self.assertRaises(ValueError):
                stats.check_metric_names([bad])


class TablesTest(unittest.TestCase):
    def test_run_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
        stats.check_metric_names(names)
        self.assertEqual(len(names), len(set(names)))

    def test_attribution_emits_every_per_layer_metric(self):
        metrics, _ = layers.attribute([], 0, 10, layers.phase_shares({}))
        produced = set(metrics) | set(layers.engine_counts({})) | {
            "obs.trace_overhead_frac", "sweep.trial_ms_p50",
            "sweep.trial_ms_tail", "sweep.trial_tail_pct",
            "sweep.trial_samples"}
        self.assertEqual(produced, {name for name, _, _ in run.PER_LAYER})


class ManifestCheckTest(unittest.TestCase):
    def test_mismatches_counts_differing_records(self):
        header = b"H" * 20
        records = [bytes([i]) * run.RECORD_BYTES for i in range(4)]
        reference = header + b"".join(records)
        self.assertEqual(run.mismatches(reference, reference, 4), 0)
        changed = header + records[0] + b"x" * run.RECORD_BYTES + \
            b"".join(records[2:])
        self.assertEqual(run.mismatches(reference, changed, 4), 1)
        self.assertEqual(run.mismatches(reference, reference[:-1], 4), 4)
        self.assertEqual(run.mismatches(reference, b"", 4), 4)


def span_file(spans, counters=None, role="main"):
    return {"header": {"run_id": "r", "pid": 1, "role": role,
                       "counters": counters or {}},
            "spans": [(name, start, end, -1, 0, 0)
                      for name, start, end in spans]}


class AttributionTest(unittest.TestCase):
    def test_interval_algebra(self):
        self.assertEqual(layers.union([(5, 7), (0, 2), (1, 3)]),
                         [[0, 3], [5, 7]])
        self.assertEqual(layers.subtract([[0, 10]], [[2, 3], [5, 6]]),
                         [[0, 2], [3, 5], [6, 10]])
        self.assertEqual(layers.subtract([[0, 4], [6, 10]], [[3, 7]]),
                         [[0, 3], [7, 10]])
        self.assertEqual(layers.measure([[0, 3], [5, 7]]), 5)

    def test_local_sweep(self):
        proc = span_file([
            ("game.build", 0, 20),
            ("sweep.run", 25, 125),
            ("game.build", 30, 50),
            ("persist.manifest_open", 50, 55),
            ("sweep.trial", 60, 100),
            ("persist.manifest_append", 100, 105),
            ("bench.replay.stream_derive", 125, 135),
            ("bench.dump", 140, 150),
        ])
        shares = {phase: 0.0 for phase in layers.PHASES}
        shares["draw"] = 0.25
        m, trial_ms = layers.attribute([proc], -10, 160, shares)
        wall = 170 - 20  # replay and dump cut out
        self.assertAlmostEqual(m["obs.traced_wall_s"], wall / 1e9)
        self.assertAlmostEqual(m["game.build_s"], 40e-9)
        self.assertEqual(m["game.build_calls"], 2)
        self.assertAlmostEqual(m["sweep.trial_s"], 40e-9)
        self.assertAlmostEqual(m["dynamics.draw_s"], 10e-9)
        self.assertAlmostEqual(m["game.outcome_s"], 30e-9)
        self.assertAlmostEqual(m["game.wall_frac"], 70 / wall)
        self.assertAlmostEqual(m["dynamics.wall_frac"], 10 / wall)
        self.assertAlmostEqual(m["persist.wall_frac"], 10 / wall)
        self.assertAlmostEqual(m["sweep.wall_frac"], 30 / wall)
        self.assertAlmostEqual(m["unattributed_frac"], 30 / wall)
        self.assertAlmostEqual(m["sweep.stream_derive_s"], 10e-9)
        self.assertEqual(trial_ms, [40e-6])

    def test_lease_run_on_one_cpu(self):
        coordinator = span_file([
            ("serve.coordinator", 0, 1000),
            ("persist.manifest_load", 5, 20),
            ("persist.manifest_append", 500, 510),
            ("persist.canonical_write", 950, 990),
        ], {"serve.leases_granted": 2, "serve.trials_completed": 3,
            "serve.trials_resumed": 1})
        worker = span_file([
            ("serve.worker", 100, 900),
            ("serve.rpc.hello", 110, 130),
            ("serve.rpc.lease", 140, 150),
            ("game.build", 150, 160),
            ("sweep.stream_derive", 160, 170),
            ("sweep.trial", 170, 300),
            ("serve.rpc.complete", 300, 520),
        ], {"serve.worker_trials_completed": 2}, role="worker")
        shares = {phase: 0.0 for phase in layers.PHASES}
        m, _ = layers.attribute([coordinator, worker], 0, 1000, shares)
        work = 15 + 10 + 40 + 10 + 10 + 130
        self.assertAlmostEqual(m["serve.wall_frac"], (1000 - work) / 1000)
        self.assertAlmostEqual(m["persist.wall_frac"], 65 / 1000)
        self.assertAlmostEqual(m["unattributed_frac"], 0.0)
        self.assertAlmostEqual(m["serve.handshake_s"], 30e-9)
        self.assertAlmostEqual(m["serve.grant_wait_s"], 10e-9)
        self.assertAlmostEqual(m["serve.useful_lease_frac"], 1.0)
        self.assertAlmostEqual(m["serve.overhead_us_per_trial"],
                               (1000 - work) / 1e3 / 2)


if __name__ == "__main__":
    unittest.main()
