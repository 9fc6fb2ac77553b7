#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paging --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the engine sources it
compiles) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild incrementally. The binary's output is passed through,
except that its last line -- one JSON object -- is reduced to the metrics
BENCHMARK.json declares for the mode: end_to_end with --trace 0,
per_layer with --trace 1. Every declared metric must be present.

Exit status: the binary's, or 2 when the build or the output is unusable.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_sha():
    """Digest of the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [m["name"] for m in
                spec["per_layer" if trace == "1" else "end_to_end"]]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary] + args + ["--out-dir", out_dir, "--commit", commit(),
                             "--source-sha", source_sha()]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode or 2)
    result = json.loads(lines[-1])
    missing = [name for name in declared if name not in result["metrics"]]
    if missing:
        sys.stdout.write(done.stdout)
        fail("metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in declared}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
