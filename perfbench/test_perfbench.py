"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics tests are pure. The input-determinism test builds the
benchmark binary (as run.py does, under .bench_build/) and compares input
digests.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 0.50), 50)
        self.assertEqual(stats.percentile(xs, 0.90), 90)
        # Order of the input does not matter.
        self.assertEqual(stats.percentile(list(reversed(xs)), 0.50), 50)

    def test_p99_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(1000)]
        # rank ceil(990) = 990 leaves exactly 10 samples beyond.
        self.assertEqual(stats.percentile(xs, 0.99), 989.0)
        self.assertIsNone(stats.percentile(xs[:999], 0.99))

    def test_withheld_when_too_few_samples(self):
        self.assertIsNone(stats.percentile([], 0.5))
        self.assertIsNone(stats.percentile([1.0] * 19, 0.5))
        self.assertEqual(stats.percentile([1.0] * 20, 0.5), 1.0)
        self.assertIsNone(stats.percentile(range(100), 0.99))

    def test_sliced_percentile_resists_a_short_spell(self):
        # 8000 samples; one contiguous tenth of the run is five times slower.
        xs = [1.0] * 8000
        xs[3000:3800] = [5.0] * 800
        self.assertEqual(stats.percentile(xs, 0.99), 5.0)
        self.assertEqual(stats.sliced_percentile(xs, 0.99), 1.0)

    def test_sliced_percentile_uses_as_many_slices_as_reportable(self):
        # 1999 samples hold one reportable p99 slice, not two.
        xs = [float(i % 100) for i in range(1999)]
        self.assertEqual(stats.sliced_percentile(xs, 0.99),
                         stats.percentile(xs, 0.99))
        # Medians of four slices of 0..999, each offset by its slice.
        xs = [float(i % 1000 + 1000 * (i // 1000)) for i in range(4000)]
        self.assertEqual(stats.sliced_percentile(xs, 0.99, slices=4),
                         (1989.0 + 2989.0) / 2)
        self.assertIsNone(stats.sliced_percentile(xs[:999], 0.99))

    def test_end_to_end_withholds_thin_tails(self):
        raw = {"setup_s": [1.0, 3.0, 2.0], "values": {},
               "series": {"query_ms": [1.0] * 999,
                          "commit_gap_ms": [2.0] * 1000}}
        out = stats.end_to_end(raw)
        self.assertEqual(out["setup_s"][0], 2.0)
        self.assertIsNone(out["query_p99_ms"][0])
        self.assertEqual(out["query_p50_ms"][0], 1.0)
        self.assertEqual(out["commit_gap_p99_ms"], (2.0, "ms", 1000))


def span(start, end, parent, name="x"):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "id": -1}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, 100, -1, "root.a"),    # 0: children 1 and 3
            span(10, 50, 0, "l1.b"),       # 1: child 2
            span(20, 30, 1, "l2.c"),       # 2: leaf
            span(60, 90, 0, "l1.d"),       # 3: leaf
        ]
        self.assertEqual(stats.self_times(spans), [30, 30, 10, 30])

    def test_self_times_sum_to_root_wall(self):
        spans = [span(0, 1000, -1), span(0, 400, 0), span(100, 300, 1),
                 span(400, 1000, 0), span(500, 600, 3), span(600, 700, 3)]
        self.assertEqual(sum(stats.self_times(spans)), 1000)

    def test_span_table_and_layers(self):
        spans = [span(0, 10_000_000, -1, "replay.meeting"),
                 span(0, 4_000_000, 0, "video.signature"),
                 span(4_000_000, 6_000_000, 0, "video.parse"),
                 span(6_000_000, 9_000_000, 0, "vision.camera")]
        table = stats.span_table(spans)
        self.assertAlmostEqual(table["replay.meeting"]["self_ms"], 1.0)
        self.assertEqual(stats.layer_totals(table),
                         {"replay": 1.0, "video": 6.0, "vision": 3.0})
        raw = {"values": {"trace.sequential_run_s": 0.02}, "series": {}}
        layer = stats.per_layer(raw, table)
        self.assertAlmostEqual(layer["trace.coverage"][0], 0.9)
        self.assertAlmostEqual(layer["trace.replay_vs_run"][0], 0.5)
        self.assertAlmostEqual(layer["video.signature_ms"][0], 4.0)


class InputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark build failed")

    def digest(self, workload, seed):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--inputs-digest"], capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_same_seed_same_inputs_other_seed_different(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertRegex(first, "^[0-9a-f]{16}$")
                self.assertEqual(first, self.digest(workload, 7))
                self.assertNotEqual(first, self.digest(workload, 8))


if __name__ == "__main__":
    unittest.main()
