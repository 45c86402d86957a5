#!/usr/bin/env bash
# Configure a sanitizer build (ASan + UBSan, including gcc's separately
# named float-cast-overflow check; fail on first report) and
# run the fault-injection / resilience, flow-health and simulation-core
# test labels under it. The fault/health tests exercise the
# retry/circuit-breaker callback paths and the health layer's
# alert-edge hooks, where lifetime bugs (a retry firing into a freed
# loop) would hide from the plain build; the simcore tests drive the
# timer wheel's move-out/swap event paths, where a use-after-move or
# buffer rotation bug would likewise stay invisible. The obs label
# rides along for the observability plane: the span ring's lazy
# allocation/eviction and the decision ring the loop traces are read
# from are pointer-heavy and deserve lifetime checking. The fleet label rides
# along too: a thousand flow partitions being built, swept in parallel,
# and torn down is where a dangling partition pointer or a
# budget-callback into a freed manager would surface first. The replay
# label rides along because the flight recorder's bounded rings and the
# replay harness's bundle reconstruction shuffle ownership of spec,
# fault, and grant records across the capture/replay boundary — the
# natural habitat of a stale pointer into an evicted ring slot.
#
#   $ tools/run_sanitized.sh    # ctest -L 'fault|health|simcore|obs|fleet|replay'
#   $ tools/run_sanitized.sh -R Breaker # forward extra ctest args
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFLOWER_SANITIZE=ON \
  -DFLOWER_BUILD_BENCHMARKS=OFF \
  -DFLOWER_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)" \
  --target fault_tests health_tests sim_tests simcore_tests obs_tests \
  fleet_tests replay_tests

cd "${build_dir}"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest -L 'fault|health|simcore|obs|fleet|replay' --output-on-failure "$@"
