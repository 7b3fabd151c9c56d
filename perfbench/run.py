#!/usr/bin/env python3
"""End-to-end benchmark of the LMM-IR stack.

Builds the program and the benchmark from the sources of this checkout
(CMake, Release) into .bench_build/perfbench, runs the benchmark's
self-test, then one workload:

    python3 perfbench/run.py --workload tat_cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the run
record.  Build output goes to standard error.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("tat_cold", "eco_session", "golden_corpus")
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over the program and benchmark sources (path + content)."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(here, build_dir):
    """Configure once, then build the benchmark target (a no-op when up
    to date).  Returns the binary path, or None on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: the program sources (CMakeLists.txt, src/) are not "
              "next to the benchmark in " + root, file=sys.stderr)
        return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(here, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                              stderr=sys.stderr)
    if selftest.returncode:
        print("perfbench: self-test exited with %d" % selftest.returncode,
              file=sys.stderr)
        return selftest.returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        sys.stderr.write(run.stdout)
        print("perfbench: benchmark exited with %d" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
