#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/test_bench.py

Builds `kav` and `kavbench` as run.py does, runs the harness's unit tests
and every workload once in both modes at a hundredth of its size, checks
that the correctness gate counts known-wrong reports as failed, and that
run.py refuses to run without sources to build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def row(key, ops, verdict="YES", segments=1):
    """A key line exactly as `kav stream` prints it."""
    return (f"{key:>3} | {ops:>5} | {segments:>8} | {ops // 2:>5} | "
            f"{0.5:>7.2f}/{1:<4} | {0:>6}/{0:<6} | {verdict}")


def report(rows, total, summary="YES: every key is 2-atomic", keys=None):
    keys = len(rows) if keys is None else keys
    lines = [f"verified {total} ops across {keys} keys (fzf, k=2, window 1024, 2 shards)",
             "key | ops | segments | reads | depth mean/max | breach/orphan | verdict"]
    return "\n".join(lines + rows + [summary]) + "\n"


class FakeRun:
    def __init__(self, stdout, exit_code=0):
        self.stdout = stdout
        self.exit_code = exit_code


class Tables(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec[key]}, table)
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_gate_accepts_a_correct_report(self):
        expected = {0: 10, 1: 20}
        stdout = report([row(0, 10), row(1, 20)], 30)
        self.assertEqual(run.failed_ops(FakeRun(stdout), expected), 0)

    def test_gate_fails_a_key_with_the_wrong_count_or_a_missing_row(self):
        expected = {0: 10, 1: 20, 2: 5}
        stdout = report([row(0, 10), row(1, 19)], 35, keys=3)
        self.assertEqual(run.failed_ops(FakeRun(stdout), expected), 25)

    def test_gate_fails_the_whole_run_on_exit_code_summary_total_or_stray_key(self):
        expected = {0: 10, 1: 20}
        good = [row(0, 10), row(1, 20)]
        cases = {
            "exit code": FakeRun(report(good, 30), exit_code=1),
            "summary": FakeRun(report(good, 30, summary="UNKNOWN: no violation found")),
            "total": FakeRun(report(good, 31)),
            "stray key": FakeRun(report(good + [row(7, 1)], 30)),
            "crash": FakeRun("", exit_code=-9),
        }
        for name, fake in cases.items():
            with self.subTest(name):
                self.assertEqual(run.failed_ops(fake, expected), 30)

    def test_gate_fails_a_serve_row_that_differs_from_the_stream_reference(self):
        expected = {0: 10, 1: 20}
        reference = run.key_rows(report([row(0, 10), row(1, 20)], 30))
        served = report([row(0, 10), row(1, 20, segments=2)], 30)
        self.assertEqual(run.failed_ops(FakeRun(served), expected, reference), 20)


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.kav, cls.kavbench = run.build()
        os.makedirs(os.path.join(run.ROOT, ".perfbench"), exist_ok=True)
        cls.scratch = tempfile.mkdtemp(prefix="test-", dir=os.path.join(run.ROOT, ".perfbench"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_every_workload_once_in_both_modes(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        for name in run.WORKLOADS:
            for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    done = subprocess.run(
                        [sys.executable, run.__file__, "--workload", name, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
                    self.assertEqual(done.returncode, 0, done.stderr.decode()[-3000:])
                    result = json.loads(done.stdout.decode().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in table})
                    for metric in table:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                         metric["unit"])
                        if trace == 0:
                            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_harness_unit_tests(self):
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", run.HARNESS_MANIFEST],
            env=dict(os.environ, CARGO_TARGET_DIR=run.target_dir()),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout.decode()[-3000:])

    def test_gate_counts_a_wrong_verdict_as_failed(self):
        # A deep-stale stream generated at k = 3 is 3-atomic but provably
        # not 2-atomic: audited at k = 2 every key must count as failed.
        path = os.path.join(self.scratch, "deep.bin")
        counts = os.path.join(self.scratch, "deep.counts")
        subprocess.run([self.kavbench, "gen", "--family", "deep-stale", "--keys", "2",
                        "--n", "500", "--k", "3", "--seed", "5", "--binary", path,
                        "--counts", counts], check=True)
        expected = run.read_counts(counts)
        out = os.path.join(self.scratch, "deep.out")
        at_k2 = run.Run([self.kav, "stream", "--k", "2", "--algo", "fzf", "--shards", "2",
                         "--format", "binary", path], None, out)
        self.assertEqual(at_k2.exit_code, 1)
        self.assertEqual(run.failed_ops(at_k2, expected), sum(expected.values()))
        at_k3 = run.Run([self.kav, "stream", "--k", "3", "--shards", "2",
                         "--format", "binary", path], None, out)
        self.assertEqual(run.failed_ops(at_k3, expected), 0)

    def test_refuses_to_run_without_sources(self):
        bare = tempfile.mkdtemp(dir=self.scratch)
        shutil.copy(SPEC_PATH, bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bin-hot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), b"")


if __name__ == "__main__":
    unittest.main()
