#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program's libraries and the benchmark are
compiled (Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. The benchmark's last stdout line is the result JSON;
with --trace 1 the spans it recorded are written under <build>/spans/.
The workload names and the default --seconds (run_seconds) come from
BENCHMARK.json. Only the flags and the workload name are checked before the
build; the binary validates every value and exits 1 with a message.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FLAGS = ("--workload", "--seed", "--seconds", "--trace")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv, spec):
    if argv == ["--self-test"]:
        return None
    if len(argv) % 2:
        fail("every flag needs a value")
    args = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in FLAGS:
            fail(f"unknown argument {flag!r}")
        if flag in args:
            fail(f"{flag} given twice")
        args[flag] = value
    workloads = [w["name"] for w in spec["workloads"]]
    if args.get("--workload") not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}, got {args.get('--workload')!r}")
    args.setdefault("--seconds", str(spec["run_seconds"]))
    return args


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            if subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                               "-DCMAKE_BUILD_TYPE=Release", *gen],
                              stdout=sys.stderr).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("configuring the build failed", 2)
        if subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                           "perfbench", "perfbench_selftest"], stdout=sys.stderr).returncode:
            fail("the build failed", 2)
    return build_dir


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse(sys.argv[1:], spec)
    build_dir = build()
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")], stdout=sys.stderr).returncode:
        fail("the benchmark's arithmetic self-test failed", 3)
    if args is None:
        return 0
    cmd = [os.path.join(build_dir, "perfbench")]
    for flag, value in args.items():
        cmd += [flag, value]
    trace = args.get("--trace") == "1"
    if trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-dir", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        return proc.returncode
    # The binary's metric names must be exactly those BENCHMARK.json declares.
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        fail(f"perfbench reported {sorted(result['metrics'])}, BENCHMARK.json declares {sorted(want)}", 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
