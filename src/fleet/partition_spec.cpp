#include "fleet/partition_spec.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

namespace flower::fleet {

namespace {

std::string F64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string U64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

Status ParseF64(const std::string& key, const std::string& value,
                double* out) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty() ||
      std::isspace(static_cast<unsigned char>(value[0]))) {
    return Status::InvalidArgument("partition spec: bad number for '" + key +
                                   "': '" + value + "'");
  }
  *out = v;
  return Status::OK();
}

/// Digits only, within T's range: strtoull alone skips leading
/// whitespace, takes a sign ("-3" wraps to 2^64 - 3), and a cast to a
/// narrower T would wrap the value.
template <typename T>
Status ParseInteger(const std::string& key, const std::string& value,
                    T* out) {
  errno = 0;
  unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE ||
      v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return Status::InvalidArgument("partition spec: bad integer for '" + key +
                                   "': '" + value + "'");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

Status ParseBool(const std::string& key, const std::string& value, bool* out) {
  if (value == "true" || value == "1") {
    *out = true;
    return Status::OK();
  }
  if (value == "false" || value == "0") {
    *out = false;
    return Status::OK();
  }
  return Status::InvalidArgument("partition spec: bad bool for '" + key +
                                 "': '" + value + "'");
}

}  // namespace

std::vector<std::pair<std::string, std::string>> SerializePartitionSpec(
    const TenantConfig& tenant, const PartitionConfig& config) {
  std::vector<std::pair<std::string, std::string>> spec;
  auto put = [&spec](const char* key, std::string value) {
    spec.emplace_back(key, std::move(value));
  };
  put("tenant.id", tenant.id);
  put("tenant.seed", U64(tenant.seed));
  put("tenant.initial_budget_usd", F64(tenant.initial_budget_usd));
  put("tenant.budget_weight", F64(tenant.budget_weight));
  put("tenant.pattern", ArrivalPatternToString(tenant.pattern));
  put("tenant.base_rate_per_sec", F64(tenant.base_rate_per_sec));
  put("tenant.amplitude_per_sec", F64(tenant.amplitude_per_sec));
  put("tenant.period_sec", F64(tenant.period_sec));
  put("tenant.phase_sec", F64(tenant.phase_sec));
  put("tenant.initial_shards", U64(tenant.initial_shards));
  put("tenant.max_shards", U64(tenant.max_shards));
  put("tenant.initial_workers", U64(tenant.initial_workers));
  put("tenant.max_workers", U64(tenant.max_workers));
  put("tenant.initial_wcu", F64(tenant.initial_wcu));
  put("tenant.max_wcu", F64(tenant.max_wcu));
  put("tenant.reference_utilization_pct",
      F64(tenant.reference_utilization_pct));
  put("tenant.monitoring_period_sec", F64(tenant.monitoring_period_sec));
  put("tenant.arbitration_period_sec", F64(tenant.arbitration_period_sec));

  put("partition.arbitration_period_sec", F64(config.arbitration_period_sec));
  put("partition.replan_offset_sec", F64(config.replan_offset_sec));
  put("partition.horizon_sec", F64(config.horizon_sec));
  put("partition.workload_emit_period_sec",
      F64(config.workload_emit_period_sec));
  put("partition.storm_tick_period_sec", F64(config.storm_tick_period_sec));
  put("partition.solver_population", U64(config.flow_solver.population_size));
  put("partition.solver_generations", U64(config.flow_solver.generations));
  put("partition.warm_start", config.flow_incremental.warm_start ? "true"
                                                                 : "false");
  put("partition.cache", config.flow_incremental.cache ? "true" : "false");
  put("partition.stall_generations",
      U64(config.flow_incremental.stall_generations));

  put("capture.health_trigger",
      config.capture.health_trigger ? "true" : "false");
  put("capture.health_eval_period_sec",
      F64(config.capture.health_eval_period_sec));
  put("capture.util_threshold", F64(config.capture.util_threshold));
  put("capture.slo_objective", F64(config.capture.slo_objective));
  put("capture.slo_fast_window_sec", F64(config.capture.slo_fast_window_sec));
  put("capture.slo_slow_window_sec", F64(config.capture.slo_slow_window_sec));
  return spec;
}

Status ParsePartitionSpec(
    const std::vector<std::pair<std::string, std::string>>& spec,
    TenantConfig* tenant, PartitionConfig* config) {
  std::set<std::string> seen;
  for (const auto& [key, value] : spec) {
    if (!seen.insert(key).second) {
      return Status::InvalidArgument("partition spec: duplicate key '" + key +
                                     "'");
    }
    if (key == "tenant.id") {
      tenant->id = value;
    } else if (key == "tenant.seed") {
      FLOWER_RETURN_NOT_OK(ParseInteger(key, value, &tenant->seed));
    } else if (key == "tenant.initial_budget_usd") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->initial_budget_usd));
    } else if (key == "tenant.budget_weight") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->budget_weight));
    } else if (key == "tenant.pattern") {
      if (!ArrivalPatternFromString(value, &tenant->pattern)) {
        return Status::InvalidArgument(
            "partition spec: unknown arrival pattern '" + value + "'");
      }
    } else if (key == "tenant.base_rate_per_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->base_rate_per_sec));
    } else if (key == "tenant.amplitude_per_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->amplitude_per_sec));
    } else if (key == "tenant.period_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->period_sec));
    } else if (key == "tenant.phase_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->phase_sec));
    } else if (key == "tenant.initial_shards") {
      FLOWER_RETURN_NOT_OK(
          ParseInteger(key, value, &tenant->initial_shards));
    } else if (key == "tenant.max_shards") {
      FLOWER_RETURN_NOT_OK(ParseInteger(key, value, &tenant->max_shards));
    } else if (key == "tenant.initial_workers") {
      FLOWER_RETURN_NOT_OK(
          ParseInteger(key, value, &tenant->initial_workers));
    } else if (key == "tenant.max_workers") {
      FLOWER_RETURN_NOT_OK(ParseInteger(key, value, &tenant->max_workers));
    } else if (key == "tenant.initial_wcu") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->initial_wcu));
    } else if (key == "tenant.max_wcu") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &tenant->max_wcu));
    } else if (key == "tenant.reference_utilization_pct") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &tenant->reference_utilization_pct));
    } else if (key == "tenant.monitoring_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &tenant->monitoring_period_sec));
    } else if (key == "tenant.arbitration_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &tenant->arbitration_period_sec));
    } else if (key == "partition.arbitration_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->arbitration_period_sec));
    } else if (key == "partition.replan_offset_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &config->replan_offset_sec));
    } else if (key == "partition.horizon_sec") {
      FLOWER_RETURN_NOT_OK(ParseF64(key, value, &config->horizon_sec));
    } else if (key == "partition.workload_emit_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->workload_emit_period_sec));
    } else if (key == "partition.storm_tick_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->storm_tick_period_sec));
    } else if (key == "partition.solver_population") {
      FLOWER_RETURN_NOT_OK(
          ParseInteger(key, value, &config->flow_solver.population_size));
    } else if (key == "partition.solver_generations") {
      FLOWER_RETURN_NOT_OK(
          ParseInteger(key, value, &config->flow_solver.generations));
    } else if (key == "partition.warm_start") {
      FLOWER_RETURN_NOT_OK(
          ParseBool(key, value, &config->flow_incremental.warm_start));
    } else if (key == "partition.cache") {
      FLOWER_RETURN_NOT_OK(
          ParseBool(key, value, &config->flow_incremental.cache));
    } else if (key == "partition.stall_generations") {
      FLOWER_RETURN_NOT_OK(ParseInteger(
          key, value, &config->flow_incremental.stall_generations));
    } else if (key == "capture.health_trigger") {
      FLOWER_RETURN_NOT_OK(
          ParseBool(key, value, &config->capture.health_trigger));
    } else if (key == "capture.health_eval_period_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->capture.health_eval_period_sec));
    } else if (key == "capture.util_threshold") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->capture.util_threshold));
    } else if (key == "capture.slo_objective") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->capture.slo_objective));
    } else if (key == "capture.slo_fast_window_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->capture.slo_fast_window_sec));
    } else if (key == "capture.slo_slow_window_sec") {
      FLOWER_RETURN_NOT_OK(
          ParseF64(key, value, &config->capture.slo_slow_window_sec));
    } else {
      return Status::InvalidArgument("partition spec: unknown key '" + key +
                                     "'");
    }
  }
  return Status::OK();
}

}  // namespace flower::fleet
