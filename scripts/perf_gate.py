#!/usr/bin/env python3
"""Perf-trajectory regression gate for micro_perf JSON records.

Compares a fresh `micro_perf --json --smoke` record against the committed
baseline (BENCH_pr10.json) and fails when any throughput metric dropped by
more than the threshold (default 25%). Metrics compared:

  * every `benchmarks[].items_per_sec`, keyed by benchmark name;
  * every `derived.*_per_sec` field.

Ratio-style derived fields (speedups) are reported for context but never
gate against the baseline: they compare two in-record measurements and stay
meaningful across machines, yet small workloads make them noisy.

Target floors (--floors floors.json) gate ANY metric — ratios included —
against an absolute minimum instead of the baseline. Each entry:

  {"metric": "derived.population_thread_speedup", "floor": 4.0,
   "min_hw_threads": 8}

`min_hw_threads` (optional) skips the floor when the CURRENT record's
`hw_threads` is below it — a thread-scaling target is unmeetable on a
1-core runner, so the floor only binds where the hardware can express it.
A floored metric missing from the current record always fails.

Metrics that are absent fail, and every absent name is ALSO collected into
one final stderr line ("perf_gate: MISSING metrics (3): a, b, c") so a
renamed benchmark section surfaces the full damage in one read instead of
one name per CI round-trip.

Caveat the budget is sized for: the committed baseline is a min-of-N
FLOOR recorded on one machine/compiler, while CI runs the gate on shared
runners with both gcc and clang — absolute throughput carries that
cross-machine variance. If the runner fleet shifts enough that healthy
builds breach the budget, recommit a fresh floor (and/or raise
--threshold in ci.yml via PERF_GATE_THRESHOLD); do not delete the gate.

Usage:
  perf_gate.py --baseline BENCH_pr10.json --current BENCH_<tag>.json \
               [--threshold 0.25] [--floors perf_floors.json] \
               [--report perf_gate_report.md]
  perf_gate.py --self-test   # gate the gate: synthetic-record unit checks

Exit status: 0 = within budget, 1 = regression (or missing metric),
2 = bad invocation / unreadable record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_record(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.stderr.write(f"perf_gate: cannot read {path}: {error}\n")
        sys.exit(2)
    if "benchmarks" not in record or "derived" not in record:
        sys.stderr.write(f"perf_gate: {path} is not a micro_perf record\n")
        sys.exit(2)
    return record


def throughput_metrics(record: dict) -> dict[str, float]:
    """All baseline-gated metrics of a record: name -> items/sec."""
    metrics: dict[str, float] = {}
    for bench in record["benchmarks"]:
        metrics[bench["name"]] = float(bench["items_per_sec"])
    for key, value in record["derived"].items():
        if key.endswith("_per_sec"):
            metrics[f"derived.{key}"] = float(value)
    return metrics


def all_metrics(record: dict) -> dict[str, float]:
    """Every metric a floor may target — throughput AND ratio fields."""
    metrics = throughput_metrics(record)
    for key, value in record["derived"].items():
        metrics.setdefault(f"derived.{key}", float(value))
    return metrics


def load_floors(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            floors = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.stderr.write(f"perf_gate: cannot read {path}: {error}\n")
        sys.exit(2)
    if not isinstance(floors, list):
        sys.stderr.write(f"perf_gate: {path} must be a JSON list\n")
        sys.exit(2)
    for entry in floors:
        if "metric" not in entry or "floor" not in entry:
            sys.stderr.write(
                f"perf_gate: floor entry {entry!r} needs 'metric' + 'floor'\n")
            sys.exit(2)
    return floors


def compare_to_baseline(baseline: dict[str, float], current: dict[str, float],
                        threshold: float) -> tuple[list, list, list]:
    """Baseline comparison: (rows, failures, missing metric names).

    Never stops at the first absent metric — the caller prints the whole
    missing list in one line, which is the entire point.
    """
    rows = []  # (name, base, cur, ratio, status)
    failures = []
    missing = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current:
            rows.append((name, base, None, None, "MISSING"))
            failures.append(f"{name}: present in baseline, absent in current")
            missing.append(name)
            continue
        cur = current[name]
        if base <= 0.0:
            # A zero/negative baseline makes every ratio vacuous — any
            # current value would "pass". That is a broken recording (a
            # benchmark that measured nothing), not a license to skip the
            # metric silently: report it loudly so it gets re-recorded.
            rows.append((name, base, cur, None,
                         "SKIPPED (non-positive baseline)"))
            continue
        ratio = cur / base
        ok = ratio >= 1.0 - threshold
        rows.append((name, base, cur, ratio, "ok" if ok else "REGRESSED"))
        if not ok:
            failures.append(
                f"{name}: {base:.3e} -> {cur:.3e} "
                f"({100.0 * (1.0 - ratio):.1f}% drop, budget "
                f"{100.0 * threshold:.0f}%)")
    for name in sorted(set(current) - set(baseline)):
        rows.append((name, None, current[name], None, "new"))
    return rows, failures, missing


def check_floors(floors: list[dict], record: dict, failures: list[str],
                 missing: list[str]) -> list[tuple]:
    """Evaluate target floors against the CURRENT record.

    Returns report rows (name, floor, value, status); appends to failures
    and to the campaign-wide missing-metric list.
    """
    metrics = all_metrics(record)
    hw_threads = int(record.get("hw_threads", 1))
    rows = []
    for entry in floors:
        name = entry["metric"]
        floor = float(entry["floor"])
        min_hw = int(entry.get("min_hw_threads", 0))
        if hw_threads < min_hw:
            # Armed but unmeetable here: say so out loud, so a fleet of
            # small runners cannot silently retire a floor forever.
            print(f"perf_gate: floor {name} >= {floor:g} armed but SKIPPED "
                  f"(record has hw_threads={hw_threads}, floor needs "
                  f">= {min_hw})")
            rows.append((name, floor, metrics.get(name), "skipped"))
            continue
        value = metrics.get(name)
        if value is None:
            rows.append((name, floor, None, "MISSING"))
            failures.append(f"floor {name}: metric absent from current record")
            missing.append(name)
        elif value < floor:
            rows.append((name, floor, value, "BELOW FLOOR"))
            failures.append(
                f"floor {name}: {value:.3f} < target floor {floor:.3f}")
        else:
            rows.append((name, floor, value, "ok"))
    return rows


def missing_line(missing: list[str]) -> str:
    """The one loud line that names EVERY absent metric at once."""
    return (f"perf_gate: MISSING metrics ({len(missing)}): "
            f"{', '.join(missing)}")


def self_test() -> int:
    """Gate the gate: run the comparison logic on synthetic records.

    CI invokes this so a refactor of perf_gate.py cannot silently turn the
    gate vacuous. Pure in-memory — no files, no benchmarks.
    """
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    base = {"a/x": 100.0, "a/y": 200.0, "derived.z_per_sec": 50.0}

    # Healthy record within budget passes with no failures.
    rows, fail, miss = compare_to_baseline(
        base, {"a/x": 95.0, "a/y": 210.0, "derived.z_per_sec": 49.0}, 0.25)
    expect(not fail and not miss, "healthy record must pass")
    expect(all(r[4] == "ok" for r in rows), "healthy rows all ok")

    # A >threshold drop is a failure naming the metric.
    _, fail, miss = compare_to_baseline(base, {"a/x": 10.0, "a/y": 200.0,
                                               "derived.z_per_sec": 50.0},
                                        0.25)
    expect(len(fail) == 1 and "a/x" in fail[0], "deep drop fails by name")
    expect(not miss, "a present-but-slow metric is not 'missing'")

    # EVERY absent metric is collected — not just the first one hit.
    _, fail, miss = compare_to_baseline(base, {"a/y": 200.0}, 0.25)
    expect(miss == ["a/x", "derived.z_per_sec"],
           "all absent metrics collected in one pass")
    expect(len(fail) == 2, "each absent metric is its own failure")
    line = missing_line(miss)
    expect("(2)" in line and "a/x" in line and "derived.z_per_sec" in line,
           "missing line names every absent metric at once")

    # New metrics in current never fail (forward-compatible records).
    _, fail, miss = compare_to_baseline(
        base, {"a/x": 100.0, "a/y": 200.0, "derived.z_per_sec": 50.0,
               "b/new": 1.0}, 0.25)
    expect(not fail and not miss, "new current-only metrics are informational")

    # A zero (or negative) baseline must never pass silently: it used to
    # map to ratio = inf, which no threshold can fail. It is surfaced as a
    # loud SKIPPED row instead — not a failure, but never an "ok" either.
    rows, fail, miss = compare_to_baseline(
        {"a/x": 0.0, "a/y": 200.0}, {"a/x": 0.0, "a/y": 200.0}, 0.25)
    skipped = [r for r in rows if r[0] == "a/x"]
    expect(len(skipped) == 1 and
           skipped[0][4] == "SKIPPED (non-positive baseline)",
           "zero baseline surfaces as a SKIPPED row")
    expect(skipped[0][3] is None, "zero baseline reports no ratio")
    expect(not fail and not miss,
           "zero baseline is a notice, not a regression failure")
    expect(all(r[4] != "ok" for r in skipped),
           "zero baseline must never read as ok")

    # Floors: below-floor fails, absent fails AND lands in missing,
    # min_hw_threads skips on small hardware.
    record = {"benchmarks": [{"name": "a/x", "items_per_sec": 3.0}],
              "derived": {"speedup": 2.0}, "hw_threads": 4}
    fail2: list[str] = []
    miss2: list[str] = []
    floor_rows = check_floors(
        [{"metric": "derived.speedup", "floor": 4.0},
         {"metric": "derived.gone", "floor": 1.0},
         {"metric": "a/x", "floor": 1.0, "min_hw_threads": 64}],
        record, fail2, miss2)
    expect(len(fail2) == 2, "below-floor + absent floor both fail")
    expect(miss2 == ["derived.gone"], "absent floored metric is missing")
    expect([r[3] for r in floor_rows] == ["BELOW FLOOR", "MISSING", "skipped"],
           "floor row statuses")

    if failures:
        for label in failures:
            sys.stderr.write(f"perf_gate: self-test FAILED: {label}\n")
        return 1
    print("perf_gate: self-test PASS (baseline compare, missing aggregation, "
          "floors)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        help="committed baseline record (BENCH_pr10.json)")
    parser.add_argument("--current",
                        help="fresh micro_perf --json --smoke record")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional drop (default 0.25)")
    parser.add_argument("--floors", default=None,
                        help="JSON list of absolute target floors to enforce "
                             "on the current record")
    parser.add_argument("--report", default=None,
                        help="write a markdown comparison report here")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit checks and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        sys.stderr.write("perf_gate: --baseline and --current are required "
                         "(or use --self-test)\n")
        return 2
    if not 0.0 < args.threshold < 1.0:
        sys.stderr.write("perf_gate: --threshold must be in (0, 1)\n")
        return 2
    if os.path.realpath(args.baseline) == os.path.realpath(args.current):
        sys.stderr.write(
            "perf_gate: baseline and current are the same file — a "
            "self-comparison passes vacuously and gates nothing\n")
        return 2

    baseline = throughput_metrics(load_record(args.baseline))
    current_record = load_record(args.current)
    current = throughput_metrics(current_record)

    rows, failures, missing = compare_to_baseline(baseline, current,
                                                  args.threshold)
    for name, base, _cur, _ratio, status in rows:
        if status.startswith("SKIPPED"):
            sys.stderr.write(
                f"perf_gate: NOTICE — {name} skipped: non-positive baseline "
                f"({base:g}); this metric gates NOTHING until a valid "
                f"baseline is recommitted\n")

    floor_rows = []
    if args.floors:
        floor_rows = check_floors(load_floors(args.floors), current_record,
                                  failures, missing)

    verdict = "PASS" if not failures else "FAIL"
    lines = [
        "# perf gate report",
        "",
        f"baseline `{args.baseline}` vs current `{args.current}` — "
        f"budget: {100.0 * args.threshold:.0f}% drop on any `*_per_sec` "
        f"metric — **{verdict}**",
        "",
        "| metric | baseline | current | ratio | status |",
        "|---|---|---|---|---|",
    ]
    for name, base, cur, ratio, status in rows:
        fmt = lambda value: "-" if value is None else f"{value:.3e}"
        ratio_text = "-" if ratio is None else f"{ratio:.3f}"
        lines.append(
            f"| {name} | {fmt(base)} | {fmt(cur)} | {ratio_text} | {status} |")
    if floor_rows:
        lines += [
            "",
            f"Target floors (`{args.floors}`, current "
            f"hw_threads = {current_record.get('hw_threads', 1)}):",
            "",
            "| metric | floor | current | status |",
            "|---|---|---|---|",
        ]
        for name, floor, value, status in floor_rows:
            value_text = "-" if value is None else f"{value:.3f}"
            lines.append(f"| {name} | {floor:.3f} | {value_text} | {status} |")
    report = "\n".join(lines) + "\n"

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
    sys.stdout.write(report)

    if failures:
        sys.stderr.write("\nperf_gate: FAIL\n")
        for failure in failures:
            sys.stderr.write(f"  {failure}\n")
        if missing:
            sys.stderr.write(missing_line(missing) + "\n")
        return 1
    sys.stdout.write(f"\nperf_gate: PASS ({len(rows)} metrics, "
                     f"{len(floor_rows)} floors checked)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
