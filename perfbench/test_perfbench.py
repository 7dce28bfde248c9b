#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (all three workloads run in
seconds). From the repository root:

    python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(trace, cwd=ROOT, bench_dir=BENCH_DIR):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", "all",
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def results_of(stdout):
    """The JSON result line of each workload, in run order."""
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


class SmokeRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for trace in (0, 1):
            proc = run_all(trace)
            if proc.returncode != 0:
                raise AssertionError(
                    f"--trace {trace} exited {proc.returncode}:\n"
                    f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
            results = results_of(proc.stdout)
            if len(results) != len(WORKLOADS):
                raise AssertionError(f"expected {len(WORKLOADS)} results")
            cls.runs[trace] = dict(zip(WORKLOADS, results))
            cls.runs[(trace, "text")] = proc.stdout

    def metric(self, trace, workload, name):
        return self.runs[trace][workload]["metrics"][name]["value"]

    def test_result_shape(self):
        for trace in (0, 1):
            for w in WORKLOADS:
                r = self.runs[trace][w]
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"], w)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)

    def test_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                got = {k: v["unit"] for k, v in
                       self.runs[trace][w]["metrics"].items()}
                self.assertEqual(got, want, f"{w} --trace {trace}")

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, v in self.runs[0][w]["metrics"].items():
                self.assertGreater(v["value"], 0, f"{w} {name}")

    def test_percentiles_state_sample_counts(self):
        text = self.runs[(0, "text")]
        for name in ("put_p50_ms", "put_p90_ms", "get_p50_ms", "get_p90_ms"):
            lines = [l for l in text.splitlines() if l.strip().startswith(name)]
            self.assertEqual(len(lines), len(WORKLOADS), name)
            for line in lines:
                self.assertIn("(n=", line)

    def test_workload_split(self):
        for name in ("chunk.s", "hash.s", "chunk.cuts", "dedup.self_s"):
            self.assertEqual(self.metric(1, "restore-aged", name), 0, name)
        for name in ("chunk.s", "hash.s"):
            self.assertGreater(self.metric(1, "backup-ingest", name), 0)
            self.assertGreater(self.metric(1, "daemon-mixed", name), 0)
        for name in ("transport.syscalls", "transport.bytes_per_syscall"):
            self.assertGreater(self.metric(1, "daemon-mixed", name), 0)
            self.assertEqual(self.metric(1, "backup-ingest", name), 0)
            self.assertEqual(self.metric(1, "restore-aged", name), 0)
        self.assertGreater(self.metric(1, "restore-aged", "container.read_amp"),
                           self.metric(1, "daemon-mixed", "container.read_amp"))
        self.assertEqual(self.metric(1, "backup-ingest", "chunk.cuts"),
                         self.metric(1, "backup-ingest", "dedup.input_chunks"))

    def test_trace_reconciles(self):
        for w in WORKLOADS:
            m = lambda n: self.metric(1, w, n)
            layers = (m("dedup.self_s") + m("restore.self_s") +
                      m("server.est_transport_core_s") + m("container.self_s") +
                      m("framing.self_s") + m("device.s"))
            total = (layers + m("workload.generate_s") + m("workload.verify_s")
                     + m("trace.unattributed_s"))
            self.assertAlmostEqual(total, m("trace.wall_s"), delta=1e-6 +
                                   1e-3 * m("trace.wall_s"), msg=w)
            self.assertGreaterEqual(m("trace.unattributed_s"),
                                    -0.01 * m("trace.wall_s"), w)
        m = lambda n: self.metric(1, "backup-ingest", n)
        self.assertAlmostEqual(m("dedup.self_s"),
                               m("chunk.s") + m("hash.s") + m("core.est_s"),
                               delta=1e-9)


class IsolatedCopy(unittest.TestCase):
    """Holding only BENCHMARK.json and this directory, the benchmark must
    fail without printing a result."""

    def test_fails_without_library_sources(self):
        tmp = ROOT / ".bench_build" / f"isolated-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (tmp / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for f in BENCH_DIR.iterdir():
                if f.is_file():
                    shutil.copy(f, tmp / "perfbench")
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   "backup-ingest", "--seed", "1", "--seconds", "1",
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(results_of(proc.stdout), [])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
