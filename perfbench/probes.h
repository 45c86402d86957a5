// Single-layer probes of the traced run: the simulation calendar with
// empty callbacks, Rng::Poisson from one and four threads, and the
// flow re-planner driven with the grants the fleet produced.
#ifndef FLOWERBENCH_PROBES_H_
#define FLOWERBENCH_PROBES_H_

#include <vector>

#include "bench.h"

namespace flowerbench {

/// Replays each tenant partition's periodic cadence (generator, Storm
/// tick, three metric publishers, three control loops, re-plans) on a
/// bare sim::Simulation with empty callbacks.
struct CalendarProbe {
  uint64_t events = 0;
  double wall_s = 0.0;
  double ns_per_event() const {
    return events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0.0;
  }
};
CalendarProbe ProbeCalendar(const WorkloadSpec& w, uint64_t seed);

/// Nanoseconds per Rng::Poisson draw at the workload's mean batch size,
/// one sample per batch of draws, from `threads` concurrent threads.
std::vector<double> ProbePoisson(const WorkloadSpec& w, uint64_t seed,
                                 size_t threads);

/// Re-plan cost: a per-tenant core::ResourceShareAnalyzer configured as
/// the partition's, driven through AnalyzeIncremental with each
/// tenant's grant sequence. One sample (seconds) per call.
std::vector<double> ProbeReplan(const WorkloadSpec& w, uint64_t seed,
                                const std::vector<std::vector<double>>& grants,
                                size_t max_tenants);

}  // namespace flowerbench

#endif  // FLOWERBENCH_PROBES_H_
