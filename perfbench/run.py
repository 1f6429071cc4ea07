#!/usr/bin/env python3
"""End-to-end benchmark of the `kav` auditor, with an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `kav` and the in-process harness
(`perfbench/harness`) from source into $CARGO_TARGET_DIR (default
`.bench_build`), generates the workload's input from --seed, and then:

  --trace 0  runs the real `kav` binary as a closed loop — one process at a
             time, the next one started when the last exits — for --seconds,
             checks every report against the generator's per-key counts, and
             reports the end-to-end metrics as medians over the runs;
  --trace 1  runs `kavbench trace`, which times the calls into each layer's
             public functions from outside and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A summary with sample counts and spreads goes to stderr. The exit
code is non-zero, with no JSON printed, when the benchmark itself cannot run
(no sources to build, a build failure, a harness error).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARNESS_MANIFEST = os.path.join(BENCH_DIR, "harness", "Cargo.toml")

# Every workload audits at k = 2 with FZF, the paper's quasilinear 2-AV
# decider, on PARALLELISM shards or workers (the reference machine has 2
# cores). Inputs come from `kav_workloads::streaming_workload` (the
# generator behind `kav gen --workload stream`): `keys` registers x `n`
# operations each.
WORKLOADS = {
    "bin-hot": {"command": "stream", "format": "binary", "keys": 64, "n": 30000},
    "ndjson-file": {"command": "stream", "format": "ndjson", "keys": 64, "n": 30000},
    # 500 ops per key stay under two 1024-op windows, so no key ever seals:
    # every operation stays resident and lands in every checkpoint.
    "ckpt-wide": {"command": "stream", "format": "binary", "keys": 1024, "n": 500,
                  "checkpoints": 4},
    "serve-stdin": {"command": "serve", "format": "ndjson", "keys": 64, "n": 20000},
}

PARALLELISM = "2"
AUDIT = ["--k", "2", "--algo", "fzf"]

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "cpu_us_per_op": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "output_bytes": ("bytes", "lower"),
    "setup_s": ("s", "lower"),
    "verified_op_frac": ("ratio", "higher"),
}

PER_LAYER = {
    "history.frame.decode_ns_per_op": ("ns", "lower"),
    "history.ndjson.decode_ns_per_op": ("ns", "lower"),
    "history.ndjson.reader_ns_per_op": ("ns", "lower"),
    "core.stream.pipeline.push_ns_per_op": ("ns", "lower"),
    "core.stream.pipeline.finish_ms": ("ms", "lower"),
    "core.stream.online.build_ns_per_op": ("ns", "lower"),
    "core.stream.online.replay_ns_per_op": ("ns", "lower"),
    "core.stream.online.segments": ("count", "lower"),
    "core.stream.online.ops_per_segment": ("count", "higher"),
    "core.stream.online.peak_resident_ops": ("count", "lower"),
    "core.stream.online.peak_retired": ("count", "lower"),
    "core.fzf.verify_ns_per_op": ("ns", "lower"),
    "core.fzf.calls": ("count", "lower"),
    "core.fzf.decided_frac": ("ratio", "higher"),
    "core.stream.checkpoint.snapshot_ms": ("ms", "lower"),
    "core.stream.checkpoint.write_ms": ("ms", "lower"),
    "core.stream.checkpoint.writes": ("count", "lower"),
    "core.stream.checkpoint.bytes_per_write": ("bytes", "lower"),
    "core.stream.checkpoint.bytes_per_resident_op": ("bytes", "lower"),
    "core.stream.coordinator.push_ns_per_op": ("ns", "lower"),
    "core.stream.coordinator.finish_ms": ("ms", "lower"),
    "core.stream.protocol.bytes_per_op": ("bytes", "lower"),
    "core.stream.protocol.messages": ("count", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

SETUP_RUNS_PER_RUN = 5
RUN_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark itself cannot run: no JSON result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds `kav` and `kavbench` from the checkout's sources."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(ROOT, "crates", "cli")):
        raise BenchError(f"no kav sources under {ROOT} to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (["--manifest-path", manifest, "-p", "kav_cli"],
                 ["--manifest-path", HARNESS_MANIFEST]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                              cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"cargo build {' '.join(args)} failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "kav"), os.path.join(release, "kavbench")


def read_counts(path):
    with open(path) as f:
        return {int(key): int(ops) for key, ops in (line.split() for line in f)}


class Run:
    """One finished `kav` process: wall and tree CPU time, peak RSS, output."""

    def __init__(self, argv, stdin_path, out_path):
        err_path = out_path + ".err"
        with open(stdin_path or os.devnull, "rb") as stdin, \
                open(out_path, "wb") as stdout, open(err_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=stderr)
            killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # wait4 reports the child plus every descendant it waited
                # for: `kav serve`'s workers are in the CPU time and RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, "rb") as f:
            self.stdout = f.read().decode("utf-8", "replace")
        with open(err_path, "rb") as f:
            self.stderr = f.read().decode("utf-8", "replace")


TABLE_ROW = re.compile(r"^\s*(\d+) \|\s*(\d+) \|.*\| (YES|NO|UNKNOWN)$")
VERIFIED = re.compile(r"^verified (\d+) ops across (\d+) keys ")


def key_rows(stdout):
    """The per-key lines of a report, by key."""
    rows = {}
    for line in stdout.splitlines():
        match = TABLE_ROW.match(line)
        if match:
            rows[int(match.group(1))] = line
    return rows


def failed_ops(run, expected, reference_rows=None):
    """Generated operations this run did not report with the expected verdict.

    A wrong exit code, a summary other than YES, a wrong operation total or
    a key the generator never made fails the whole run. Otherwise a key
    fails its operations when its `ops` column differs from the generator's
    count, its verdict is not YES, or — given `reference_rows` from
    `kav stream` on the same records — its line differs from the reference.
    """
    total = sum(expected.values())
    lines = run.stdout.splitlines()
    if run.exit_code != 0 or not lines or not lines[-1].startswith("YES:"):
        return total
    verified = [VERIFIED.match(line) for line in lines]
    verified = [m for m in verified if m]
    if len(verified) != 1 or int(verified[0].group(1)) != total \
            or int(verified[0].group(2)) != len(expected):
        return total
    rows = key_rows(run.stdout)
    if set(rows) - set(expected):
        return total
    failed = 0
    for key, ops in expected.items():
        match = TABLE_ROW.match(rows.get(key, ""))
        ok = match is not None and int(match.group(2)) == ops and match.group(3) == "YES"
        if reference_rows is not None:
            ok = ok and rows.get(key) == reference_rows.get(key)
        if not ok:
            failed += ops
    return failed


class Workload:
    """A workload's generated inputs and its `kav` command lines."""

    def __init__(self, name, seed, scale, kav, kavbench, run_dir):
        self.name = name
        self.spec = WORKLOADS[name]
        self.kav = kav
        self.kavbench = kavbench
        self.dir = run_dir
        self.keys = self.spec["keys"]
        self.n = max(2, int(self.spec["n"] * scale))
        self.seed = seed
        ext = "bin" if self.spec["format"] == "binary" else "ndjson"
        self.input = self.path(f"input.{ext}")
        self.one = self.path(f"one.{ext}")
        self.checkpoint = self.path("audit.ckpt")
        gen = [kavbench, "gen", "--keys", str(self.keys), "--n", str(self.n),
               "--seed", str(seed), "--counts", self.path("counts.txt"),
               "--one-counts", self.path("one-counts.txt"),
               f"--{self.spec['format']}", self.input, f"--one-{self.spec['format']}", self.one]
        if self.spec["command"] == "serve":
            # The same records as frames, for the `kav stream` reference table.
            self.reference_input = self.path("reference.bin")
            gen += ["--binary", self.reference_input]
        subprocess.run(gen, check=True, stdout=sys.stderr)
        self.expected = read_counts(self.path("counts.txt"))
        self.expected_one = read_counts(self.path("one-counts.txt"))
        self.ops = sum(self.expected.values())
        checkpoints = self.spec.get("checkpoints", 0)
        self.checkpoint_every = self.ops // checkpoints if checkpoints else 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def argv(self, input_path):
        """The `kav` command and the file it reads on stdin (or None)."""
        if self.spec["command"] == "serve":
            return [self.kav, "serve", *AUDIT, "--workers", PARALLELISM, "-"], input_path
        argv = [self.kav, "stream", *AUDIT, "--shards", PARALLELISM]
        if self.spec["format"] == "binary":
            argv += ["--format", "binary"]
        if self.checkpoint_every:
            argv += ["--checkpoint", self.checkpoint,
                     "--checkpoint-every", str(self.checkpoint_every)]
        return argv + [input_path], None

    def run(self, input_path):
        for stale in (self.checkpoint, self.checkpoint + ".tmp"):
            if os.path.exists(stale):
                os.remove(stale)
        argv, stdin = self.argv(input_path)
        run = Run(argv, stdin, self.path("stdout.txt"))
        run.checkpoint_bytes = os.path.getsize(self.checkpoint) \
            if os.path.exists(self.checkpoint) else 0
        return run

    def reference(self):
        """`kav stream`'s run on the same records, whose key table every
        `kav serve` run must reproduce; None for the other workloads."""
        if self.spec["command"] != "serve":
            return None
        argv = [self.kav, "stream", *AUDIT, "--shards", PARALLELISM,
                "--format", "binary", self.reference_input]
        return Run(argv, None, self.path("reference.txt"))


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(workload, seconds):
    attempted = failed = 0
    setup = []

    def set_up(times):
        for _ in range(times):
            run = workload.run(workload.one)
            check(run, workload.expected_one)
            setup.append(run.wall_s)

    def check(run, expected, reference_rows=None):
        nonlocal attempted, failed
        lost = failed_ops(run, expected, reference_rows)
        if lost:
            log(f"{workload.name}: {lost} ops failed the check (exit {run.exit_code})\n"
                f"{run.stderr[-2000:]}")
        attempted += sum(expected.values())
        failed += lost

    reference = workload.reference()
    reference_rows = None
    if reference is not None:
        check(reference, workload.expected)
        reference_rows = key_rows(reference.stdout)
    runs = []
    started = time.perf_counter()
    while True:
        # Set-up runs are spread between the full runs, so a burst of
        # load on the machine cannot land on all of them at once.
        set_up(SETUP_RUNS_PER_RUN)
        run = workload.run(workload.input)
        check(run, workload.expected, reference_rows)
        runs.append(run)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
            break
    samples = {
        "ops_per_s": [workload.ops / r.wall_s for r in runs],
        "cpu_us_per_op": [r.cpu_s * 1e6 / workload.ops for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "output_bytes": [len(r.stdout.encode()) + r.checkpoint_bytes for r in runs],
        "setup_s": setup,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["verified_op_frac"] = 1.0 - failed / attempted
    for name, values in samples.items():
        log(f"{workload.name} {name}: median {metrics[name]:.6g} {END_TO_END[name][0]}, "
            f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}, "
            f"iqr/median {spread(values):.3f}")
    return attempted, failed, metrics, END_TO_END


def per_layer(workload, seconds):
    spans = os.path.join(os.path.dirname(workload.dir),
                         f"spans-{workload.name}-seed{workload.seed}.jsonl")
    argv = [workload.kavbench, "trace", "--command", workload.spec["command"],
            "--input", workload.input, "--format", workload.spec["format"],
            "--counts", workload.path("counts.txt"), "--keys", str(workload.keys),
            "--seed", str(workload.seed), "--seconds", str(seconds),
            "--scratch", workload.dir, "--spans", spans,
            "--shards", PARALLELISM, "--workers", PARALLELISM,
            "--checkpoint-every", str(workload.checkpoint_every)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=seconds + RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"kavbench trace exited {done.returncode}")
    result = json.loads(done.stdout.decode().splitlines()[-1])
    log(f"{workload.name}: {result['iterations']} traced iterations; spans in {spans}")
    return result["attempted"], result["failed"], result["metrics"], PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the operations per key (for smoke tests)")
    args = parser.parse_args()
    try:
        kav, kavbench = build()
        run_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            workload = Workload(args.workload, args.seed, args.scale, kav, kavbench, run_dir)
            measure = per_layer if args.trace else end_to_end
            attempted, failed, metrics, table = measure(workload, args.seconds)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    missing = set(table) - set(metrics)
    if missing:
        log(f"perfbench: no figure for {sorted(missing)}")
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
