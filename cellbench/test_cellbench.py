#!/usr/bin/env python3
"""The benchmark's own tests, on tiny cells through the same code.

    python3 cellbench/test_cellbench.py

Builds the benchmark like run.py does, then runs the cellbench binary with
--tiny: small cells of each workload's kind, driven by the same phase and
counter code as the full cells.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = "0.3"  # a tiny run still makes its minimum number of cells
SCRATCH = run.ROOT / ".bench_build"  # temporary files stay inside the checkout


def cellbench(*args):
    done = subprocess.run([str(run.BINARY), "--tiny", *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=120)
    lines = done.stdout.splitlines()
    return done.returncode, lines


def result_of(lines):
    """Parses the result line, refusing any key that appears twice."""
    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise AssertionError(f"duplicate keys in {keys}")
        return dict(pairs)
    return json.loads(lines[-1], object_pairs_hook=no_duplicates)


def fingerprint(lines):
    return next(line.split()[1] for line in lines if line.startswith("fingerprint "))


def bench_config():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class CellbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def measure(self, workload, seed, trace):
        code, lines = cellbench("--workload", workload, "--seed", str(seed),
                                "--seconds", SECONDS, "--trace", str(trace))
        self.assertEqual(code, 0, "\n".join(lines))
        return lines

    def test_fingerprint_repeats_across_runs(self):
        for workload in run.WORKLOADS:
            first = self.measure(workload, 3, 0)
            second = self.measure(workload, 3, 0)
            self.assertTrue(result_of(first)["correct"])
            self.assertEqual(fingerprint(first), fingerprint(second), workload)

    def test_seed_changes_model_outputs(self):
        self.assertNotEqual(fingerprint(self.measure("bridged_tcp", 3, 0)),
                            fingerprint(self.measure("bridged_tcp", 4, 0)))

    def test_bridged_tcp_pools_graphs_starting_with_the_seeds_own(self):
        lines = self.measure("bridged_tcp", 3, 0)
        cells = [line.split()[2] for line in lines if line.startswith("cell ")]
        self.assertEqual(len(cells), 8)
        self.assertEqual(len(set(cells)), 8)
        self.assertTrue(cells[0].endswith("-s3,"), cells[0])
        self.assertEqual(result_of(lines)["attempted"], 8 * 4)  # 4 tiny streams a graph

    def test_sharded_equals_one_scheduler_on_small_star(self):
        for seed in (1, 2):
            prints = []
            for workload in ("station_star", "sharded_station"):
                code, lines = cellbench("--workload", workload, "--seed", str(seed),
                                        "--fingerprint-only")
                self.assertEqual(code, 0)
                prints.append(fingerprint(lines))
            self.assertEqual(prints[0], prints[1], f"seed {seed}")

    def test_every_metric_printed_once_with_its_unit(self):
        config = bench_config()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in config[key]}
            for workload in run.WORKLOADS:
                result = result_of(self.measure(workload, 5, trace))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} --trace {trace}")
                self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            metrics = result_of(self.measure(workload, 5, 0))["metrics"]
            for name, metric in metrics.items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_per_layer_counters_repeat_exactly(self):
        counted = {m["name"] for m in bench_config()["per_layer"]
                   if m["unit"] in ("count", "B")}
        for workload in run.WORKLOADS:
            runs = [result_of(self.measure(workload, 6, 1))["metrics"] for _ in range(2)]
            for name in counted:
                self.assertEqual(runs[0][name]["value"], runs[1][name]["value"],
                                 f"{workload} {name}")

    def test_trace_spans_cover_every_phase(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            path = Path(tmp) / "spans.json"
            code, _ = cellbench("--workload", "sharded_station", "--seed", "1",
                                "--seconds", SECONDS, "--trace", "1",
                                "--trace-out", str(path))
            self.assertEqual(code, 0)
            spans = json.loads(path.read_text())
        phases = ["cell", "build", "runner", "converge", "traffic", "collect"]
        self.assertEqual([s["name"] for s in spans[:6]], phases)
        for span in spans[1:6]:
            self.assertEqual(span["parent"], spans[0]["id"])
            self.assertLessEqual(span["host_start_s"], span["host_end_s"])
        build, converge, traffic = spans[1], spans[3], spans[4]
        self.assertEqual(build["start"]["arena_bytes"], 0)
        self.assertGreater(build["end"]["arena_bytes"], 0)
        self.assertEqual(converge["virt_end_s"] - converge["virt_start_s"], 45.0)
        self.assertGreater(traffic["end"]["lan_frames"], traffic["start"]["lan_frames"])
        self.assertEqual(spans[5]["end"], spans[0]["end"])

    def test_run_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                 "station_star", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
