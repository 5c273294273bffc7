#!/usr/bin/env python3
"""Build and run the WANify end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine-adaptive --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (which builds the library from src/
through the repository's own CMakeLists.txt) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark binary.
Build output goes to stderr; the last stdout line is the benchmark's JSON
result. Exits nonzero, without a result, when the sources are missing,
the build fails or a correctness gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Pool size: the machine's cores, at most 4, so the benchmark measures
# the same parallelism on every host that has at least 4 cores.
MAX_POOL_THREADS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg: str) -> int:
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    return 2


def build(bench_dir: Path, build_dir: Path, jobs: int) -> bool:
    configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "perfbench",
                 "-j", str(jobs)]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["engine-adaptive", "serve-mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src").is_dir():
        return fail(f"no WANify sources (CMakeLists.txt, src/) in {root}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    cores = os.cpu_count() or 1
    if not build(bench_dir, build_dir, min(cores, MAX_POOL_THREADS)):
        return fail("build failed")

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("WANIFY_THREADS", str(min(cores, MAX_POOL_THREADS)))
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        return fail("benchmark printed no JSON result")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
