#!/usr/bin/env python3
"""Stability check of the campaign benchmark.

    python3 perfbench/stability.py [--out FILE]

For every workload in BENCHMARK.json:

1. Spread: one untraced run for each of the seeds 1..10. For every
   end-to-end metric, setup_s included, the distance between the first and
   third quartile of the runs (statistics.quantiles, n=4) as a share of
   their median must stay within the metric's bound in BENCHMARK.json.
2. Exact repeats: two traced runs at the default seed. The work counts
   below must be identical in both, since they are pure functions of the
   commit and the seed.

Exits 1 when either check fails. Every run's result object is written to
--out (JSON lines, with the full record of each run) when given.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
DEFAULT_SEED = 20030324
EXACT_COUNTS = ("sim.streams", "sim.piats", "tune.evaluations", "tune.rounds",
                "tune.piats_per_eval", "population.chunks", "shard.bytes",
                "shard.bytes_per_flow", "shard.checkpoint_writes",
                "shard.checkpoint_bytes")


def run(workload, seed, seconds, trace, log):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    if log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                              "result": result, "record": record}) + "\n")
        log.flush()
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"incorrect result: {' '.join(cmd)}\n{lines[-2]}")
    # The record holds every metric of the run, the result's among them.
    return {name: m["value"] for name, m in record["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        help="append every run's result and record here (JSON lines)")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    log = args.out.open("a") if args.out else None

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0, log) for seed in SEEDS]
        print(f"{workload}: {len(runs)} untraced runs, seeds {SEEDS.start}..{SEEDS.stop - 1}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, share = spread([r[name] for r in runs])
            verdict = ("ok" if share <= bound / 3 else
                       "within bound" if share <= bound else "OVER BOUND")
            ok = ok and share <= bound
            print(f"  {name:14s} median {med:12.6g} {metric['unit']:8s} "
                  f"IQR/median {share:7.4f}  bound {bound:.2f}  {verdict}")
        first, second = (run(workload, DEFAULT_SEED, seconds, 1, log) for _ in range(2))
        for name in EXACT_COUNTS:
            same = first[name] == second[name]
            ok = ok and same
            print(f"  {name:24s} {first[name]:>14g} {second[name]:>14g}  "
                  f"{'repeats' if same else 'DIFFERS'}")
    print("stability: PASS" if ok else "stability: FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
