#!/usr/bin/env python3
"""Run one workload of the DLPT benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the benchmark
binary (the Cargo package in this directory) from source into
$CARGO_TARGET_DIR, default `.bench_build`, runs the workload and prints
each metric as `name value unit`, then, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json;
with `--trace 1` they are the `per_layer` list, and the span sample of
the traced run is written under the build directory. A per-layer metric
of a layer the workload does not reach is reported as 0 (flat). The exit
status is 1 when a result disagrees with its oracle, and 2 when the
benchmark cannot run at all (no sources, build failure, missing metric).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the benchmark binary from source; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die(f"no DLPT sources under {ROOT}: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr: stdout is the result channel.
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        die("build failed")
    return os.path.join(target_dir(), "release", "dlpt-perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit status, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return r.returncode, None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, trace, spec):
    """The metrics BENCHMARK.json lists for this mode, checked against
    their declared units. End-to-end metrics must all be measured; a
    per-layer metric the workload's path does not reach is 0."""
    got = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                die(f"{name}: unit {got[name]['unit']!r}, declared {unit!r}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            die(f"end-to-end metric {name} was not measured")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    spec = declared()
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {a.workload!r}")
    binary = build()
    extra = []
    if a.trace:
        spans = os.path.join(target_dir(), "perfbench",
                             f"spans-{a.workload}-{a.seed}.jsonl")
        extra = ["--spans", spans]
    status, result = run_binary(binary, a.workload, a.seed, a.seconds,
                                a.trace, extra)
    if result is None:
        die(f"{a.workload} printed no result (exit status {status})")
    metrics = select(result, a.trace, spec)
    correct = status == 0 and result["failed"] == 0
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
