#!/usr/bin/env python3
"""Build and run the full-stack benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pay_open --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The C++ benchmark (perfbench/CMakeLists.txt, which compiles the program's
libraries from ../src) is configured and built into .bench_build/ first;
build output goes to stderr so the last line of stdout stays the result
JSON. The benchmark's stdout is passed through; its last line is checked
against BENCHMARK.json before this script exits 0.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        sys.exit("perfbench: last line is not a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: result keys are not correct, attempted, failed, metrics")
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(got.items()) ^ set(want.items())))


def main(argv):
    if argv == ["--selftest"]:
        build("perfbench_selftest")
        test = os.path.join(BUILD, "perfbench_selftest")
        return subprocess.run([test], timeout=600).returncode
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= set(args):
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    build("perfbench")
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + argv, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: benchmark exited %d without a result" % proc.returncode)
    try:
        check_result(lines[-1], args["--trace"])
    except SystemExit:
        sys.stderr.write(proc.stdout)
        raise
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
