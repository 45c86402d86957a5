#!/usr/bin/env python3
"""Compare a fresh bench run against its committed baseline.

Each bench JSON carries one *headline* metric — an absolute number the
bench exists to defend, never a ratio against in-repo reference code.
This script extracts it from both files and fails (exit 1) when the
fresh run regresses by more than the threshold (default 15%).
Smoke-mode runs measure a different workload than the committed
full-mode baselines, so a mode mismatch is reported and skipped
(exit 0) rather than compared apples-to-oranges. So is a pair from
different hosts: each file names its host's CPU model (`cpu_model`),
and a pair whose models differ, or where either file lacks one (or
reads "unknown"), is skipped, because single runs on hosts that
differ up to 4x say nothing about the change.

Usage:
  bench_diff.py BASELINE.json FRESH.json [--threshold=0.15]
  bench_diff.py --all BASELINE_DIR FRESH_DIR [--threshold=0.15]

Exit codes: 0 ok/skipped, 1 regression, 2 bad invocation/unreadable.
"""

import json
import os
import sys

# bench name -> (headline description, extractor); every headline is a
# throughput, so higher is better.
HEADLINES = {
    "obs_overhead": (
        "full-telemetry steady-tick events/s with the plane on",
        lambda b: b["enabled"]["on_events_per_sec"],
    ),
    "fleet_scale": (
        "heterogeneous-horizon fleet flow-sim-sec per wall second, "
        "4 threads",
        lambda b: _fleet_hetero_4t(b),
    ),
    "sim_throughput": (
        "timer-wheel calendar events/s",
        lambda b: b["calendar"]["wheel_events_per_sec"],
    ),
}


def _fleet_hetero_4t(b):
    """Throughput of the 4-thread point of the heterogeneous curve —
    the regime the work-stealing sweep exists for."""
    for r in b["hetero"]["scaling"]:
        if r["threads"] == 4:
            return r["flow_sim_sec_per_wall_sec"]
    raise ValueError("no 4-thread point on the heterogeneous curve")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def compare(baseline_path, fresh_path, threshold):
    """Returns True when fresh holds the baseline's headline metric."""
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    name = baseline.get("bench")
    if name != fresh.get("bench"):
        print(f"bench_diff: bench mismatch: baseline {name!r} vs "
              f"fresh {fresh.get('bench')!r}", file=sys.stderr)
        sys.exit(2)
    if name not in HEADLINES:
        print(f"bench_diff: no headline registered for {name!r}",
              file=sys.stderr)
        sys.exit(2)
    if baseline.get("smoke") != fresh.get("smoke"):
        print(f"[SKIP] {name}: mode mismatch (baseline smoke="
              f"{baseline.get('smoke')}, fresh smoke={fresh.get('smoke')}) "
              f"— different workloads, not comparable")
        return True

    base_cpu = baseline.get("cpu_model", "unknown")
    fresh_cpu = fresh.get("cpu_model", "unknown")
    if "unknown" in (base_cpu, fresh_cpu) or base_cpu != fresh_cpu:
        print(f"[SKIP] {name}: host mismatch (baseline cpu_model="
              f"{base_cpu!r}, fresh cpu_model={fresh_cpu!r}) — runs from "
              f"different or unnamed hosts are not comparable")
        return True

    if name == "fleet_scale":
        # A 4-thread throughput means nothing without 4 real threads;
        # such hosts skip the comparison the same way the bench itself
        # skips its scaling gate.
        hw = min(baseline.get("hardware_threads", 0),
                 fresh.get("hardware_threads", 0))
        if hw < 4:
            print(f"[SKIP] {name}: 4-thread headline needs >= 4 hardware "
                  f"threads (have {hw}) — not comparable")
            return True

    desc, extract = HEADLINES[name]
    base_v = extract(baseline)
    fresh_v = extract(fresh)
    # Regression = fresh dropped below (1 - threshold) x baseline.
    regressed = fresh_v < base_v * (1.0 - threshold)
    change = (fresh_v - base_v) / base_v if base_v else 0.0

    verdict = "REGRESSED" if regressed else "ok"
    print(f"[{verdict}] {name}: {desc}")
    print(f"  baseline {base_v:.3f} -> fresh {fresh_v:.3f} "
          f"({change:+.1%}, threshold {threshold:.0%})")
    return not regressed


def main(argv):
    threshold = 0.15
    args = []
    all_mode = False
    for a in argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
        elif a == "--all":
            all_mode = True
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    if not all_mode:
        return 0 if compare(args[0], args[1], threshold) else 1

    baseline_dir, fresh_dir = args
    ok = True
    seen = 0
    for fname in sorted(os.listdir(baseline_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        fresh_path = os.path.join(fresh_dir, fname)
        if not os.path.exists(fresh_path):
            print(f"[SKIP] {fname}: no fresh result")
            continue
        seen += 1
        ok &= compare(os.path.join(baseline_dir, fname), fresh_path,
                      threshold)
    if seen == 0:
        print("bench_diff: no comparable BENCH_*.json pairs found",
              file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
