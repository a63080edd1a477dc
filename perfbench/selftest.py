#!/usr/bin/env python3
"""Self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-made nested spans, the tail
percentile rule, the output checks, that tracing puts every wrapped function
back, that the benchmark refuses to run without the library sources, and runs
every workload at tiny scale, untraced and traced, reporting every metric that
BENCHMARK.json names.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread variables before numpy loads)

run.import_library()

import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def span(sid, parent, name, start, end):
    return Span(sid=sid, parent=parent, root=0, name=name, start=start, end=end)


class SelfTime(unittest.TestCase):
    def test_nested_overlapping_and_overhanging_children(self):
        spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, 0, "a", 1.0, 4.0),
            span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
            span(3, 1, "leaf", 2.0, 3.0),
            span(4, 0, "c", 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 4.0)

    def test_summary_adds_calls_time_self_time_and_failures(self):
        spans = [span(0, None, "outer", 0.0, 4.0), span(1, 0, "inner", 0.5, 1.5),
                 span(2, 0, "inner", 2.0, 3.0)]
        spans[2].failed = True
        spans[1].counts = {"tokens": 3}
        totals = tracing.summarize(spans)
        self.assertEqual((totals["inner"].calls, totals["inner"].failed), (2, 1))
        self.assertAlmostEqual(totals["inner"].s, 2.0)
        self.assertAlmostEqual(totals["outer"].self_s, 2.0)
        self.assertEqual(totals["inner"].counts["tokens"], 3)

    def test_summary_under_a_prefix_drops_spans_outside_it(self):
        spans = [span(0, None, "unit", 0.0, 9.0), span(1, 0, "op.rank", 1.0, 4.0), span(2, 1, "f", 2.0, 3.0),
                 span(3, 0, "f", 5.0, 6.0), span(4, 3, "g", 5.0, 5.5)]
        totals = tracing.summarize(spans, under="op.")
        self.assertEqual(sorted(totals), ["f"])
        self.assertEqual(totals["f"].calls, 1)

    def test_tracer_records_parents_and_failed_calls(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def boom():
            raise ValueError("no")

        wrapped = tracer.wrap("boom", boom)
        with self.assertRaises(ValueError):
            tracer.call("outer", wrapped)
        outer, inner = tracer.spans
        self.assertEqual((inner.parent, inner.root, inner.failed), (outer.sid, outer.sid, True))
        self.assertTrue(outer.failed)
        self.assertEqual(tracer._stack, [])

    def test_adopted_child_process_spans_hang_under_the_open_span(self):
        child = Tracer()
        child.call("x", lambda: child.call("y", lambda: None))
        tracer = Tracer()
        tracer.call("op", lambda: tracer.adopt(child.dump()))
        op, x, y = tracer.spans
        self.assertEqual((x.parent, y.parent, y.root), (op.sid, x.sid, op.sid))


class Tail(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n in (22, 37, 100, 1000):
            values = [float(v) for v in range(n, 0, -1)]
            value, pct = measure.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_no_tail_unless_above_the_median(self):
        self.assertIsNone(measure.tail([1.0] * 21))
        self.assertIsNotNone(measure.tail([1.0] * 22))

    def test_describe_reports_sample_count_and_percentile(self):
        d = measure.describe_ms([i / 1000 for i in range(1, 101)])
        self.assertEqual((d["n"], d["tail_pct"]), (100, 90.0))
        self.assertAlmostEqual(d["tail_ms"], 90.0)
        self.assertAlmostEqual(d["p50_ms"], 50.5)


class Checks(unittest.TestCase):
    def test_ranking_comparison(self):
        ref = [("b", 2.0), ("a", 1.0), ("c", 1.0)]
        self.assertEqual(checks.compare_ranking(ref, ref), [])
        nudged = [("b", 2.0), ("a", 1.0 + 1e-13), ("c", 1.0)]
        self.assertEqual(checks.compare_ranking(nudged, ref), [])
        self.assertTrue(checks.compare_ranking([("a", 1.0), ("b", 2.0), ("c", 1.0)], ref))
        self.assertTrue(checks.compare_ranking([("b", 2.0), ("c", 1.0), ("a", 1.0)], ref))
        self.assertTrue(checks.compare_ranking(ref[:2], ref))
        self.assertTrue(checks.compare_ranking([("b", 2.5), ("a", 1.0), ("c", 1.0)], ref))

    def test_adam_check_catches_a_wrong_update(self):
        from listrank import encoder as enc, training

        config = workloads._train_config(0, 1)
        ckpt = training.init_checkpoint(enc.EncoderConfig(vocab_size=50, model_dim=8, n_heads=2, ffn_dim=16,
                                                          n_layers=1, max_len=8), 0, "h")
        self.assertEqual(checks.adam_check(ckpt, config, 0), [])
        original = training.adam_step

        def skewed(params, grads, state, cfg):
            return original(params, grads, state, training.TrainConfig(lr=cfg.lr * 1.01))

        training.adam_step = skewed
        try:
            self.assertTrue(checks.adam_check(ckpt, config, 0))
        finally:
            training.adam_step = original

    def test_cli_rows_match_the_cli_format(self):
        self.assertEqual(checks.cli_rows([("d1", 0.5), ("d0", -1 / 3)]), "doc_id,score\nd1,0.5\nd0,-0.333333\n")


class Install(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        from listrank import losses, training

        originals = (training.adam_step, training.listmle_loss, losses.listmle_loss)
        tracer = Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIsNot(training.listmle_loss, originals[1])
            self.assertIs(training.listmle_loss, losses.listmle_loss)
        finally:
            restore()
        self.assertEqual((training.adam_step, training.listmle_loss, losses.listmle_loss), originals)


class Bare(unittest.TestCase):
    def test_refuses_to_run_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query_stream",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120,
                                  env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        for name in workloads.WORKLOADS:
            for traced, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=name, traced=traced):
                    result, details, _ = run.run(name, 3, 0.1, traced, scale=workloads.TINY)
                    self.assertEqual(details["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(list(result["metrics"]), list(table))
                    if traced and name == "train_pipeline":
                        for share in details["child_share"].values():
                            self.assertTrue(0.5 < share <= 1.0)


if __name__ == "__main__":
    unittest.main()
