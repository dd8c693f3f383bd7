"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the printed metric names match ``BENCHMARK.json``, that span
self times plus ``untraced_s`` add up to the traced wall time, that the
tracer puts every original method back, and that a tiny-budget run of each
workload, untraced and traced, passes the correctness gate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import multiprocessing
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attribute = path.split(".")
        return getattr(module, class_name).__dict__[attribute]
    return getattr(module, path)


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


class WrapperTest(unittest.TestCase):
    def test_restore_puts_every_original_back(self):
        originals = [_resolve(module, path) for _layer, module, path, _hook in tracer.TARGETS]
        from repro.backends import process_pool
        from repro.core import filtering, fuzzer

        aliases = (fuzzer.compute_signature, filtering.compute_signature)
        worker_main = process_pool._worker_main
        tracer.install(os.path.join(ROOT, ".perfbench_out"))
        try:
            wrapped = [_resolve(module, path) for _layer, module, path, _hook in tracer.TARGETS]
            for before, during in zip(originals, wrapped):
                self.assertIsNot(before, during)
            self.assertIsNot(fuzzer.compute_signature, aliases[0])
        finally:
            tracer.restore()
        restored = [_resolve(module, path) for _layer, module, path, _hook in tracer.TARGETS]
        for before, after in zip(originals, restored):
            self.assertIs(before, after)
        self.assertEqual((fuzzer.compute_signature, filtering.compute_signature), aliases)
        self.assertIs(process_pool._worker_main, worker_main)


class SelfTimeTest(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        spans = [
            ["a", 0, 100, -1],
            ["b", 10, 40, 0],
            ["c", 20, 30, 1],
            ["b", 50, 70, 0],
            ["a", 200, 250, -1],
        ]
        self.assertEqual(
            tracer.self_times(spans), {"a": 100e-9, "b": 40e-9, "c": 10e-9}
        )
        self.assertAlmostEqual(tracer.top_level_seconds(spans), 150e-9)

    def test_self_times_and_untraced_add_up_to_wall(self):
        workload = workloads.WORKLOADS["wide_sim"]
        tiny = dataclasses.replace(
            workload,
            campaign=lambda s, i: workloads.with_config(
                workload.campaign(s, i), programs_per_instance=1
            ),
        )
        scratch = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(scratch, exist_ok=True)
        tracer.install(scratch)
        try:
            traced = workloads.run_pass(tiny, 7, scratch, [0])
        finally:
            tracer.restore()
        import layers

        ledger = tracer.TRACER.to_json()
        metrics = layers.layer_metrics(traced, ledger, [], run.POOL_WORKERS)
        self_total = sum(tracer.self_times(ledger["spans"]).values())
        self.assertGreaterEqual(metrics["untraced_s"], 0.0)
        self.assertAlmostEqual(
            self_total + metrics["untraced_s"], traced.campaign_seconds(), places=6
        )
        self.assertTrue(all(v >= 0 for v in tracer.self_times(ledger["spans"]).values()))


class TinyRunTest(unittest.TestCase):
    def test_each_workload_untraced_and_traced(self):
        scratch = os.path.join(ROOT, ".perfbench_out", "selftest")
        os.makedirs(scratch, exist_ok=True)
        self.addCleanup(shutil.rmtree, scratch, True)
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name, trace=0):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", name, "--seconds", "0.01"])
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                self.assertEqual(code, 0, out.getvalue())
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
                self.assertGreater(result["metrics"]["tc_per_ref_s"]["value"], 0)
            with self.subTest(workload=name, trace=1):
                metrics, _detail, problems, _attempted, failed = run.measure_traced(
                    workload, 7, 0.01, scratch
                )
                self.assertEqual(problems, [])
                self.assertEqual(failed, 0)
                self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))
                self.assertGreater(metrics["layer_share"], 0.5)
        self.assertEqual(multiprocessing.active_children(), [])


if __name__ == "__main__":
    unittest.main()
