#!/usr/bin/env python3
"""Build and run linkpad's campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the repository's own linkpad library target together with the
benchmark (CMake, Release) into .bench_build/perfbench, then runs one
workload. The last line of standard output is the result object; see
perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("population", "robust_frontier", "sharded_campaign")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def library_sources():
    src = ROOT / "src"
    return sorted(p for p in src.rglob("*") if p.is_file()) if src.is_dir() else []


def source_digest(files):
    """SHA-256 over the library sources, so a record names its code even in
    a tree that is not a git checkout."""
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def revision():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"command failed: {' '.join(cmd)}")


def build(files):
    if not any(p.suffix == ".cpp" for p in files):
        fail(f"no library sources under {ROOT / 'src'}; run from a linkpad source tree")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seconds < 1 or args.seed < 0):
        parser.error("--seconds must be >= 1 and --seed >= 0")

    files = library_sources()
    build(files)
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)

    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD_DIR),
           "--revision", revision(), "--source-digest", source_digest(files)]
    try:
        done = subprocess.run(cmd, timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
