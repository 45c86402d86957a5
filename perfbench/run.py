#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and with it the
flower libraries from src/) in Release mode into $CARGO_TARGET_DIR
(default .bench_build), then:

  --trace 0  runs the workload in fresh `flowerbench fleet` processes
             until --seconds have passed (at least MIN_REPS runs) and
             reports the median of every end-to-end metric;
  --trace 1  runs one untraced `flowerbench fleet` process (exec
             counters) and one `flowerbench traced` process, and reports
             every per-layer metric.

Every run's outputs are checked; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Metric names and
units come from BENCHMARK.json at the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_REPS = 3
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "flowerbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "flowerbench")


def call(binary, args, timeout=REP_TIMEOUT_S):
    """Runs one fresh flowerbench process; its last stdout line is JSON.
    Returns None when it failed to produce one."""
    try:
        p = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log("flowerbench %s: timed out" % " ".join(args))
        return None
    if p.returncode != 0:
        log("flowerbench %s: exit %d\n%s" % (" ".join(args), p.returncode,
                                             p.stderr.strip()))
        return None
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("flowerbench %s: no JSON result" % " ".join(args))
        return None


def git_commit():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_untraced(binary, workload, seed, seconds):
    args = ["fleet", "--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + seconds
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        rep = call(binary, args)
        reps.append(rep)
        if rep is None:
            break
    return reps


def tally(reps):
    """attempted/failed over tenant-period rows. A run that failed to
    report counts its expected rows (those of a good run) as failed; a
    run whose digest differs from the first run's fails every row."""
    good = [r for r in reps if r is not None]
    expected_rows = max([r["rows"] for r in good] or [1])
    digest = good[0]["digest"] if good else None
    attempted = failed = 0
    errors = []
    for r in reps:
        if r is None:
            attempted += expected_rows
            failed += expected_rows
            errors.append("run failed")
            continue
        attempted += r["rows"]
        if r["digest"] != digest:
            failed += r["rows"]
            errors.append("digest %s differs from %s" % (r["digest"], digest))
        else:
            failed += r["failed_rows"]
        if not r["ok"]:
            errors.append(r["error"])
    return attempted, failed, errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % a.workload)
        return 2
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    load_at_start = os.getloadavg()[0]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    fp = call(binary, ["fingerprint"], timeout=30)
    if fp is None:
        log("refusing to report timings: build is not optimised or is "
            "sanitized")
        return 3
    fp.update({"git_commit": git_commit(), "loadavg_1m_at_start":
               load_at_start, "workload": a.workload, "seed": a.seed,
               "trace": a.trace})
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)

    values = {}
    if a.trace == 0:
        reps = run_untraced(binary, a.workload, a.seed, a.seconds)
        attempted, failed, errors = tally(reps)
        good = [r for r in reps if r is not None]
        for m in wanted:
            if good:
                values[m["name"]] = statistics.median(
                    r[m["name"]] for r in good)
        print("runs %d: %s" % (len(reps), json.dumps(
            [{k: r[k] for k in ("flow_sim_sec_per_wall_sec", "setup_s",
                                "peak_rss_mib", "rss_kib_per_tenant_hour",
                                "digest")} if r else None for r in reps])),
              flush=True)
    else:
        fleet = call(binary, ["fleet", "--workload", a.workload, "--seed",
                              str(a.seed)])
        traced = call(binary, ["traced", "--workload", a.workload, "--seed",
                               str(a.seed)])
        attempted, failed, errors = tally([fleet, traced])
        if fleet is not None and traced is not None:
            values.update(traced)
            values["exec.overlap_ratio"] = fleet["overlap_ratio"]
            values["exec.idle_share"] = fleet["idle_share"]
            values["exec.steals"] = fleet["steals"]
            values["exec.mailbox_waits"] = fleet["mailbox_waits"]
            values["exec.tasks"] = fleet["tasks"]
            values["exec.steal_share"] = (
                fleet["steals"] / fleet["tasks"] if fleet["tasks"] else 0.0)
            values["failed_share"] = failed / attempted

    for e in errors:
        log("check failed: %s" % e)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            errors.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    result = {"correct": not errors and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
