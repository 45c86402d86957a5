#ifndef FLOWER_BENCH_BENCH_UTIL_H_
#define FLOWER_BENCH_BENCH_UTIL_H_

// Shared scenario builders for the paper-reproduction benchmark
// harness. Every bench binary prints the regenerated table/figure data
// to stdout, followed by a PASS/FAIL shape verdict against the paper's
// qualitative claims.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "core/flow_builder.h"
#include "flow/flow.h"
#include "workload/arrival.h"

namespace flower::bench {

/// The canonical click-stream flow configuration used across benches:
/// m4.large-class workers, 60 s metric periods, 60 s sliding windows.
inline flow::FlowConfig CanonicalFlow() {
  flow::FlowConfig cfg;
  cfg.stream.name = "clickstream";
  cfg.stream.initial_shards = 2;
  cfg.stream.max_shards = 64;
  cfg.cluster.name = "storm";
  cfg.initial_workers = 2;
  cfg.instance_type = {"m4.large", 2, 1.0e6, 0.10};
  cfg.worker_boot_delay_sec = 90.0;
  cfg.table.name = "aggregates";
  cfg.table.initial_wcu = 100.0;
  cfg.table.max_wcu = 5000.0;
  cfg.window_sec = 60.0;
  cfg.slide_sec = 10.0;
  return cfg;
}

inline workload::ClickStreamConfig CanonicalWorkload() {
  workload::ClickStreamConfig cfg;
  cfg.num_users = 50000;
  cfg.num_urls = 500;
  cfg.url_zipf_skew = 1.1;
  cfg.generator_instances = 4;
  return cfg;
}

/// Prints a PASS/FAIL shape verdict line.
inline bool Verdict(const std::string& claim, bool ok) {
  std::cout << (ok ? "  [PASS] " : "  [FAIL] ") << claim << "\n";
  return ok;
}

/// The host's CPU: /proc/cpuinfo's first "model name" (or "unknown"),
/// then the first CPU's family, model and stepping, which tell two
/// generations that share a marketing name apart, and the hardware
/// thread count, e.g. "AMD EPYC (family 26, model 2, stepping 1,
/// 4 threads)". Bench JSON carries it as `cpu_model` so that
/// tools/bench_diff.py compares runs from one host only.
inline std::string CpuModel() {
  std::string name = "unknown";
  std::string family = "?";
  std::string model = "?";
  std::string stepping = "?";
  std::ifstream in("/proc/cpuinfo");
  // The first blank line ends the first CPU's block.
  for (std::string line; std::getline(in, line) && !line.empty();) {
    const size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value = line.substr(colon + 2);
    if (key == "model name") name = value;
    if (key == "cpu family") family = value;
    if (key == "model") model = value;
    if (key == "stepping") stepping = value;
  }
  return name + " (family " + family + ", model " + model + ", stepping " +
         stepping + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " threads)";
}

inline void Header(const std::string& title) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "================================================================\n";
}

}  // namespace flower::bench

#endif  // FLOWER_BENCH_BENCH_UTIL_H_
