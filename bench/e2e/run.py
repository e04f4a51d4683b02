#!/usr/bin/env python3
"""Builds pbs_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> \
        --seconds <run_seconds> [--trace 0|1] [--jsonl <file>]

Run it from the root of a checkout of the repository. The library and the
benchmark are built in Release mode under $CARGO_TARGET_DIR (default
.bench_build)/pbs_e2e; an up-to-date build costs about a second.
--seconds must equal BENCHMARK.json's run_seconds, so every run that
compare.py may pair measures the same length.

The benchmark's own lines ("name value unit") pass through, and the last
line printed is one JSON object: correct, attempted, failed, and the
metrics BENCHMARK.json lists, end-to-end ones with --trace 0 and
per-layer ones with --trace 1. With --trace 1 the spans go to
<build>/trace/<workload>-<seed>.jsonl. --jsonl appends the run's full
record (every metric) for compare.py.

Exits non-zero, printing no result, when the build or the run fails, and
non-zero with the result when a reconciliation failed or was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pbs_e2e")


def build(out):
    # Configuring again is cheap and repairs a half-configured tree.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "pbs_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jsonl")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.seconds != bench["run_seconds"]:
        fail("--seconds %g is not BENCHMARK.json's run_seconds %g"
             % (args.seconds, bench["run_seconds"]))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(out, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace", os.path.join(
            trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("pbs_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("pbs_e2e exited with %d and no record" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("pbs_e2e did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if args.jsonl:
        with open(args.jsonl, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
