#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The benchmark is built from source
with cargo (release profile, offline) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset. A named workload prints the
benchmark's report and, as its last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--workload all`
runs every workload untraced and traced and prints every metric. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["e3_threaded", "e6_sequential", "e7_sharded_traced"]
DEFAULT_SEED = 0xD52022
# One run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def parse_seed(text):
    """A decimal or 0x-prefixed hexadecimal seed."""
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def build(root, target):
    """Builds the benchmark binary; returns its path or None."""
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    except OSError as error:
        print(f"run.py: cannot run cargo: {error}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(exe, root, target, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(target, "perfbench", f"spans-{workload}.tsv")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def run_all(exe, root, target, seed, seconds):
    """Runs every workload untraced and traced and prints one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_once(exe, root, target, workload, seed, seconds, trace, True)
            if code != 0 or not out:
                status = 1
                continue
            result = json.loads(out.strip().splitlines()[-1])
            status |= 0 if result["correct"] else 1
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"], metric["unit"]))
            rows.append((workload, f"failed/attempted (trace {trace})",
                         result["failed"], f"of {result['attempted']}"))
    for workload, name, value, unit in rows:
        print(f"{workload:>18} {name:>40} {value:>18.6g} {unit}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    exe = build(root, target)
    if exe is None:
        return 1
    if args.workload == "all":
        return run_all(exe, root, target, args.seed, args.seconds)
    code, _ = run_once(exe, root, target, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
