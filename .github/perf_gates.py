#!/usr/bin/env python3
"""CI's speed and memory gates, read from the calibrated benchmark.

    python3 .github/perf_gates.py              # run the benchmark, gate on the last row
    python3 .github/perf_gates.py --self-test  # prove that every gate can fail
    python3 .github/perf_gates.py --new-row    # run CHECKS checks, print their median as a row

Run from the root of a checkout. A check runs `perfbench/run.py
--seconds 5` (built into $CARGO_TARGET_DIR, or `target` when that is
unset) on every workload untraced, and on e3_threaded and
e7_sharded_traced with `--trace 1`, in two passes. From the two passes
it keeps each time's better reading and each count's and memory
figure's worse one: a co-tenant can slow one 5 s run by half on a
shared host, but a slower program reads slower in both. It compares
the numbers with the last row of BENCH_trajectory.json, prints `<gate>
passed` or `<gate> FAILED` for every gate and exits 1 naming every
failed gate.

The gates:

- every run is `correct` in both passes;
- `trials_per_s`, `trial_us_p50` and `trial_us_p99` of each workload
  are within BENCHMARK.json's bound of the row (a higher-is-better
  metric may fall to row / (1 + bound), a lower-is-better one rise to
  row * (1 + bound));
- a from-scratch E3 trial is at most 1.25 times the row. The traced
  e3 run times the trial's four phases (construct, prefix, suffix,
  classify) as wall-clock spans, once per seed per round. Like
  perfbench's own latencies, the check takes each seed's best timing
  of each phase, sums the four medians over seeds and divides the sum
  by the same pass's untraced e3 one-thread host slowdown. (perfbench's
  `construct_us` and the rest are medians over every timing; on a
  shared host they swing up to twice as far between runs.)
- `obs.trace.on_over_off` of both traced runs is at most 1.25;
- the traced e7 run's `shard.wire_bytes_per_trial`, a count, is at
  most the row's;
- the untraced e7 coordinator's `peak_rss_mb` is at most 32 MiB (it
  holds each dump as its suffix plus one trace prefix per worker
  attempt, ~16 MiB; a full ring per dump would take ~87 MiB).

perfbench calibrates its untraced times for host speed, and the check
calibrates the traced trial, so the row holds on another host only as
far as that calibration does.
"""

import argparse
import copy
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SECONDS = 5
PASSES = 2
CHECKS = 5
E3, E6, E7 = "e3_threaded", "e6_sequential", "e7_sharded_traced"
E3_TRACED, E7_TRACED = f"{E3} --trace 1", f"{E7} --trace 1"
# (workload, trace) in the order each pass runs them.
RUNS = [(E3, 0), (E6, 0), (E7, 0), (E3, 1), (E7, 1)]
END_TO_END = ["trials_per_s", "trial_us_p50", "trial_us_p99"]
# The spans of a from-scratch trial's four phases in the traced run.
PHASES = ["core.system.construct", "core.system.prefix", "core.system.suffix", "core.classify"]
# Which of the passes' readings a check keeps: the better time, the
# worse count or memory figure.
KEEP = {"trials_per_s": max, "trial_us_p50": min, "trial_us_p99": min, "trial_us": min,
        "on_over_off": min, "wire_bytes_per_trial": max, "peak_rss_mb": max}
TRIAL_FACTOR = 1.25
ON_OVER_OFF_MAX = 1.25
RSS_MAX_MIB = 32
HOST_LINE = re.compile(r"host: best calibration ([0-9.]+) .*?, ([0-9.]+) on ")


def label(workload, trace):
    return f"{workload} --trace 1" if trace else workload


def best_phases_us(spans_path):
    """Each phase's median over seeds of the seed's best timing, in µs."""
    best = {phase: {} for phase in PHASES}
    with open(spans_path) as f:
        next(f)
        for line in f:
            _, name, _, trial, start, end = line.rstrip("\n").split("\t")
            if name in best:
                ns = int(end) - int(start)
                best[name][trial] = min(ns, best[name].get(trial, ns))
    return {phase: statistics.median(by_seed.values()) / 1e3 for phase, by_seed in best.items()}


def run_perfbench(workload, trace):
    """Runs one workload; returns its JSON line with the host slowdowns
    the untraced report prints and, for the traced e3 run, the best
    phase timings (None when the run failed). An untraced report with
    no host line counts as not `correct`. perfbench's own report goes
    to stderr."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", "target")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", file=sys.stderr, flush=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        return result
    host = HOST_LINE.search(done.stdout)
    if host:
        result["slowdowns"] = [float(host.group(1)), float(host.group(2))]
    elif not trace:
        print(f"perf_gates: {workload}: no host calibration line", file=sys.stderr)
        result["correct"] = False
        return result
    if label(workload, trace) == E3_TRACED:
        # run.py writes the spans here; a `correct` run wrote them.
        spans = os.path.join(ROOT, env["CARGO_TARGET_DIR"], "perfbench", f"spans-{workload}.tsv")
        result["best_phases_us"] = best_phases_us(spans)
    return result


def measure():
    """One check: every run, PASSES times over."""
    return [{label(*run): run_perfbench(*run) for run in RUNS} for _ in range(PASSES)]


def reading(reports):
    """The gated numbers of one pass, from its perfbench reports."""
    def value(run, name):
        return reports[run]["metrics"][name]["value"]

    out = {run: {name: value(run, name) for name in END_TO_END} for run in (E3, E6, E7)}
    out[E7]["peak_rss_mb"] = value(E7, "peak_rss_mb")
    out[E3_TRACED] = {
        "trial_us": sum(reports[E3_TRACED]["best_phases_us"].values())
        / reports[E3]["slowdowns"][0],
        "on_over_off": value(E3_TRACED, "obs.trace.on_over_off"),
    }
    out[E7_TRACED] = {
        "on_over_off": value(E7_TRACED, "obs.trace.on_over_off"),
        "wire_bytes_per_trial": value(E7_TRACED, "shard.wire_bytes_per_trial"),
    }
    return out


def kept(passes):
    """The numbers a check gates: each one's kept reading over the passes."""
    readings = [reading(reports) for reports in passes]
    return {run: {name: KEEP[name](r[run][name] for r in readings) for name in numbers}
            for run, numbers in readings[0].items()}


def correctness(passes):
    """One gate per run: it finished with correct output in every pass."""
    return [(f"{run} correct",
             all(p.get(run) is not None and p[run]["correct"] is True for p in passes), "")
            for run in (label(*run) for run in RUNS)]


def failed(results):
    return [name for name, passed, _ in results if not passed]


def gates(passes, row, bounds):
    """Every gate as (name, passed, detail)."""
    out = correctness(passes)
    if failed(out):
        # A failed run has no numbers to gate.
        return out
    now = kept(passes)

    def relative(run, name, better, bound):
        have, base = now[run][name], row[run][name]
        if better == "higher":
            limit = base / (1 + bound)
            out.append((f"{run} {name}", have >= limit, f"{have:.6g} >= {limit:.6g}"))
        else:
            limit = base * (1 + bound)
            out.append((f"{run} {name}", have <= limit, f"{have:.6g} <= {limit:.6g}"))

    def at_most(run, name, limit):
        have = now[run][name]
        out.append((f"{run} {name}", have <= limit, f"{have:.6g} <= {limit:.6g}"))

    for run in (E3, E6, E7):
        for name in END_TO_END:
            relative(run, name, *bounds[name])
    relative(E3_TRACED, "trial_us", "lower", TRIAL_FACTOR - 1)
    at_most(E3_TRACED, "on_over_off", ON_OVER_OFF_MAX)
    at_most(E7_TRACED, "on_over_off", ON_OVER_OFF_MAX)
    at_most(E7_TRACED, "wire_bytes_per_trial", row[E7_TRACED]["wire_bytes_per_trial"])
    at_most(E7, "peak_rss_mb", RSS_MAX_MIB)
    return out


def load_bounds():
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    return {m["name"]: (m["better"], m["bound"]) for m in metrics if m["name"] in END_TO_END}


def last_row():
    with open(TRAJECTORY) as f:
        return json.load(f)["rows"][-1]


def check():
    results = gates(measure(), last_row(), load_bounds())
    for name, passed, detail in results:
        print(f"{name} {'passed' if passed else 'FAILED'}{f' ({detail})' if detail else ''}")
    if failed(results):
        print(f"perf_gates: failed gates: {', '.join(failed(results))}", file=sys.stderr)
        return 1
    return 0


def reports_at(row):
    """One pass of perfbench reports that read exactly `row`, from a
    host twice as slow as perfbench's reference host."""
    slowdown = 2.0

    def report(metrics):
        return {"correct": True, "attempted": 1000, "failed": 0, "slowdowns": [slowdown] * 2,
                "metrics": {name: {"value": value} for name, value in metrics.items()}}

    reports = {run: report({name: row[run][name] for name in END_TO_END}) for run in (E3, E6, E7)}
    reports[E7]["metrics"]["peak_rss_mb"] = {"value": row[E7]["peak_rss_mb"]}
    reports[E3_TRACED] = report({"obs.trace.on_over_off": row[E3_TRACED]["on_over_off"]})
    # The whole uncalibrated trial in the first phase, the rest zero.
    reports[E3_TRACED]["best_phases_us"] = {
        phase: row[E3_TRACED]["trial_us"] * slowdown if phase == PHASES[0] else 0.0
        for phase in PHASES}
    reports[E7_TRACED] = report(
        {"obs.trace.on_over_off": row[E7_TRACED]["on_over_off"],
         "shard.wire_bytes_per_trial": row[E7_TRACED]["wire_bytes_per_trial"]})
    return reports


def self_test():
    """Feeds the gates the row itself, which must pass, and one doctored
    check per gate, which must fail that gate and no other. A time or a
    throughput is doctored in every pass, since the check keeps its
    better reading; a count, a memory figure or `correct` in one pass."""
    row, bounds = last_row(), load_bounds()
    clean = [reports_at(row) for _ in range(PASSES)]
    problems = [f"untouched report: {name} FAILED" for name in failed(gates(clean, row, bounds))]

    def doctored(run, metrics, change, passes=range(PASSES)):
        out = copy.deepcopy(clean)
        for p in passes:
            for metric in metrics:
                entry = out[p][run]["metrics"][metric]
                entry["value"] = change(entry["value"])
        return out

    slow_trial = copy.deepcopy(clean)
    for reports in slow_trial:
        phases = reports[E3_TRACED]["best_phases_us"]
        for phase in phases:
            phases[phase] *= 1.3

    worse, lower = (lambda v: v * 1.3), (lambda v: v * 0.7)
    cases = []  # (the gate that must fail, the doctored passes)
    for workload, trace in RUNS:
        run = label(workload, trace)
        bad = copy.deepcopy(clean)
        bad[-1][run]["correct"] = False
        cases.append((f"{run} correct", bad))
    for run in (E3, E6, E7):
        cases.append((f"{run} trials_per_s", doctored(run, ["trials_per_s"], lower)))
        cases.append((f"{run} trial_us_p50", doctored(run, ["trial_us_p50"], worse)))
        cases.append((f"{run} trial_us_p99", doctored(run, ["trial_us_p99"], worse)))
    cases.append((f"{E3_TRACED} trial_us", slow_trial))
    for run in (E3_TRACED, E7_TRACED):
        cases.append((f"{run} on_over_off", doctored(run, ["obs.trace.on_over_off"], worse)))
    cases.append((f"{E7_TRACED} wire_bytes_per_trial",
                  doctored(E7_TRACED, ["shard.wire_bytes_per_trial"], lambda v: v + 1, [0])))
    cases.append((f"{E7} peak_rss_mb", doctored(E7, ["peak_rss_mb"], lambda _: 33.0, [0])))

    gate_names = {name for name, _, _ in gates(clean, row, bounds)}
    untested = gate_names - {gate for gate, _ in cases}
    problems += [f"{name}: no doctored report" for name in sorted(untested)]
    for gate, passes in cases:
        got = failed(gates(passes, row, bounds))
        print(f"doctored {gate}: {'FAILED' if gate in got else 'passed'}")
        if got != [gate]:
            problems.append(f"doctored {gate}: failed gates {got}")
    for problem in problems:
        print(f"perf_gates self-test: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"perf_gates self-test passed: {len(cases)} doctored checks, each failed its gate alone")
    return 0


def new_row():
    """Runs CHECKS checks and prints the median of each gated number and
    of the host slowdowns as a row to append to BENCH_trajectory.json."""
    numbers, slowdowns = [], {run: [] for run in (E3, E6, E7)}
    for _ in range(CHECKS):
        passes = measure()
        bad = failed(correctness(passes))
        if bad:
            print(f"perf_gates: runs not correct: {', '.join(bad)}", file=sys.stderr)
            return 1
        numbers.append(kept(passes))
        for reports in passes:
            for run in slowdowns:
                slowdowns[run].append(reports[run]["slowdowns"])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True).stdout.strip()
    row = {"commit": commit, "date": time.strftime("%Y-%m-%d"), "host": "", "cpus": os.cpu_count(),
           "checks": CHECKS, "passes": PASSES, "seconds": SECONDS}
    for run, names in numbers[0].items():
        row[run] = {name: statistics.median(n[run][name] for n in numbers) for name in names}
    for run, samples in slowdowns.items():
        # Median one-thread and many-thread slowdown over every run.
        row[run]["slowdowns"] = [statistics.median(s[i] for s in samples) for i in (0, 1)]
    print(json.dumps(row, indent=2))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--new-row", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.new_row:
        return new_row()
    return check()


if __name__ == "__main__":
    sys.exit(main())
