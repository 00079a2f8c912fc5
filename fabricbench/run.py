#!/usr/bin/env python3
"""Builds and runs fabricbench, the repository benchmark.

Usage (from the repository root):
    python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from source on first use into $CARGO_TARGET_DIR
(default .bench_build) under the repository root, as a Release build of its
own CMake package (fabricbench/CMakeLists.txt, which pulls in ../src). Build
output goes to stderr; stdout carries only the benchmark's report, whose last
line is the JSON result. The exit code is the benchmark's: 0 only when every
output check passed. See fabricbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"fabricbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "fabricbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "fabricbench"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "fabricbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("zen sources (src/) not found next to the benchmark")
    if not shutil.which("cmake"):
        fail("cmake not found")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
