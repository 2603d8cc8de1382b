#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library it links) into .bench_build/perfbench; later
runs rebuild only what changed. Every run first executes the benchmark's
own self-tests, then the workload. The binary's metric values are matched
against BENCHMARK.json: the names must equal the declared end_to_end
(--trace 0) or per_layer (--trace 1) names, and the units come from there.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run descriptor line precedes it, and each result is appended to
.bench_build/results.jsonl. Any build failure, self-test failure, crash or
mismatch with BENCHMARK.json exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
# The contract allows 180 s per run; leave room to report a timeout.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True)


def source_identity():
    """Commit when the checkout is a git work tree, plus a digest of every
    file the benchmark builds from (a checkout need not be a git tree)."""
    commit = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: workload {args.workload!r} is not in BENCHMARK.json")
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: building the benchmark failed: {error}")
        return 1
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(OUT, "work")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    if run.returncode != 0:
        log(f"run.py: perfbench exited with {run.returncode}")
        return 1
    lines = run.stdout.strip().splitlines()
    descriptor = json.loads(lines[0])
    outcome = json.loads(lines[-1])
    values = outcome["values"]
    if set(values) != set(declared):
        log("run.py: metrics differ from BENCHMARK.json;",
            f"missing {sorted(set(declared) - set(values))},",
            f"undeclared {sorted(set(values) - set(declared))}")
        return 1

    descriptor["commit"], descriptor["source_digest"] = source_identity()
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as handle:
        handle.write(json.dumps({"run": descriptor, "result": result}) + "\n")
    print(json.dumps({"run": descriptor}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
