#!/usr/bin/env bash
# Configure a ThreadSanitizer build and run the planner test label under
# it. These tests drive exec::ThreadPool's RunTasks sweeps — the chunked
# fan-outs inside NSGA-II, one task per window in the windowed planner —
# at multiple thread counts, where ordering bugs (a worker publishing
# results the coordinator reads without a happens-before edge) would
# hide from the plain build.
#
# The simcore label rides along: the simulation calendar is documented
# single-threaded, and running its property tests under TSan keeps any
# future threading of the event loop honest from day one.
#
# The obs label rides along for the span collector's concurrent id
# allocation and the planner telemetry taken at several solver thread
# counts: lock-free atomic paths a missed memory-order edge would
# corrupt silently in the plain build.
#
# The fleet label rides along for the multi-tenant sweep: partitions
# advance concurrently as RunTasks tasks and span ids allocate from an
# atomic counter, exactly where a plain-uint64 increment raced before;
# the determinism-across-thread-counts tests double as the regression
# certificate for that fix.
#
# The replay label rides along because replay re-runs a tenant captured
# from a multi-threaded fleet sweep and asserts a byte-identical digest —
# any missed happens-before edge in the sweep shows up here as a
# divergence long before it corrupts a real postmortem.
#
#   $ tools/run_tsan.sh        # build + ctest -L 'planner|simcore|obs|fleet|replay'
#   $ tools/run_tsan.sh -R ThreadPool  # forward extra ctest args
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFLOWER_SANITIZE_THREAD=ON \
  -DFLOWER_BUILD_BENCHMARKS=OFF \
  -DFLOWER_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)" \
  --target exec_tests opt_tests core_tests sim_tests simcore_tests \
  obs_tests fleet_tests replay_tests flower-sim

cd "${build_dir}"
TSAN_OPTIONS=halt_on_error=1 \
  ctest -L 'planner|simcore|obs|fleet|replay' --output-on-failure "$@"

# End-to-end: a multi-threaded planning pass through the CLI (NSGA-II's
# fine-grained RunTasks sweeps), with the telemetry trace enabled, must
# be race-free too.
TSAN_OPTIONS=halt_on_error=1 \
  ./tools/flower-sim --hours=1 --threads=4 --quiet \
    --trace-out="${build_dir}/tsan-trace.json"

# And the multi-tenant fleet sweep: partitions advancing concurrently
# over the thread pool, budgets handed off at every period boundary.
TSAN_OPTIONS=halt_on_error=1 \
  ./tools/flower-sim --fleet --fleet-tenants=8 --fleet-threads=4 \
    --hours=1 --quiet

# The heterogeneous-horizon work-stealing sweep: tenants arbitrate on
# different cadences, so boundary events interleave, partitions park
# mid-sweep awaiting their boundary's arbitration, and idle workers
# steal — every acquire/release edge of the window handoff (demand
# in, grant out) and the park/resume baton gets exercised where TSan
# can see it.
TSAN_OPTIONS=halt_on_error=1 \
  ./tools/flower-sim --fleet --fleet-tenants=8 --fleet-threads=4 \
    --fleet-tenant-period-jitter --hours=1 --quiet
