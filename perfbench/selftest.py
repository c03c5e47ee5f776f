#!/usr/bin/env python3
"""Self-test of the DLPT benchmark, at tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that:
  * every end-to-end metric of BENCHMARK.json is measured, with its unit;
  * every per-layer metric of a layer on the workload's path is measured
    by the traced run, with its unit;
  * the correctness check fires: a run that corrupts one read result
    exits with status 1 and counts the failure;
  * every deterministic metric repeats exactly across two runs of one
    seed, untraced and traced alike, and between the traced and the
    untraced run;
  * a held-out seed passes the correctness checks.
Exit status 0 when all hold, 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
HELD_OUT_SEED = 4242
SECONDS = 0.2

COMMON = [
    "engine.requeues_per_op", "cache.hit_ratio", "cache.stale_ratio",
    "cache.invalidations_per_write", "cache.learned_per_op",
    "protocol.discovery_msgs_per_op", "protocol.insert_msgs_per_op",
    "protocol.host_msgs_per_op", "protocol.join_msgs_per_op",
    "protocol.maintenance_msgs_per_op", "protocol.visit_accept_ratio",
    "obs.hops_p50", "obs.hops_p99", "obs.fanout_p99",
]
ENGINE = [
    "system.request_ns", "system.request_self_ns", "engine.begin_ns",
    "engine.deliver_ns", "engine.delivers_per_op", "engine.finish_ns",
    "engine.residual_pct", "obs.trace_overhead_pct", "codec.encode_ns",
    "codec.decode_ns", "codec.bytes_per_frame",
]

# The per-layer metrics each workload's path reaches.
REACHES = {
    "lookup_zipf": COMMON + ENGINE + [
        "system.insert_ns", "system.remove_ns", "directory.resolve_ns",
        "directory.labels_per_read"],
    "gather_latency": COMMON + [
        "sim.request_ns", "sim.deliveries_per_op", "sim.visits_per_gather",
        "sim.requeues_per_op"],
    "churn_sec4": COMMON + ENGINE + [
        "system.insert_ns", "system.join_ns", "system.leave_ns",
        "system.end_unit_ns", "balance.step_ns", "balance.join_id_ns",
        "balance.migrations_per_unit"],
}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny(binary, workload, seed, trace, *extra):
    return run.run_binary(binary, workload, seed, SECONDS, trace,
                          ["--tiny", *extra])


def det(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["class"] == "det"}


def main():
    spec = run.declared()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    binary = run.build()
    for w in (w["name"] for w in spec["workloads"]):
        status, plain = tiny(binary, w, SEED, 0)
        expect(status == 0 and plain is not None and plain["failed"] == 0,
               f"{w}: untraced run is correct")
        _, again = tiny(binary, w, SEED, 0)
        status, traced = tiny(binary, w, SEED, 1)
        expect(status == 0 and traced is not None and traced["failed"] == 0,
               f"{w}: traced run is correct")
        _, traced_again = tiny(binary, w, SEED, 1)
        if None in (plain, again, traced, traced_again):
            expect(False, f"{w}: every run printed a result")
            continue
        for m in spec["end_to_end"]:
            got = plain["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{w}: end-to-end {m['name']} [{m['unit']}] measured")
        for name in REACHES[w]:
            got = traced["metrics"].get(name)
            expect(got is not None and got["unit"] == units[name],
                   f"{w}: per-layer {name} [{units[name]}] measured")
        expect(det(plain) == det(again),
               f"{w}: deterministic metrics repeat for seed {SEED}")
        expect(det(traced) == det(traced_again),
               f"{w}: {len(det(traced))} deterministic metrics of the traced "
               f"run repeat for seed {SEED}")
        a, b = det(plain), det(traced)
        shared = sorted(set(a) & set(b))
        diff = [k for k in shared if a[k] != b[k]]
        expect(len(shared) > 10 and not diff,
               f"{w}: {len(shared)} deterministic metrics equal traced vs "
               f"untraced {diff if diff else ''}")
        status, bad = tiny(binary, w, SEED, 0, "--corrupt")
        expect(status == 1 and bad is not None and bad["failed"] >= 1,
               f"{w}: a corrupted result fails the run")
        status, held = tiny(binary, w, HELD_OUT_SEED, 0)
        expect(status == 0 and held is not None and held["failed"] == 0,
               f"{w}: held-out seed {HELD_OUT_SEED} is correct")
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
