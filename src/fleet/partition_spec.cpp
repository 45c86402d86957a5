#include "fleet/partition_spec.h"

#include <cstdio>
#include <limits>
#include <set>
#include <type_traits>

#include "common/parse.h"

namespace flower::fleet {

namespace {

/// The spec: calls `visit(key, field)` once for each of its 34 keys,
/// in the order a bundle stores them (its fingerprint hashes them in
/// this order). Writing passes const configs, reading mutable ones.
template <typename Tenant, typename Config, typename Visit>
void VisitSpec(Tenant& tenant, Config& config, Visit&& visit) {
  visit("tenant.id", tenant.id);
  visit("tenant.seed", tenant.seed);
  visit("tenant.initial_budget_usd", tenant.initial_budget_usd);
  visit("tenant.budget_weight", tenant.budget_weight);
  visit("tenant.pattern", tenant.pattern);
  visit("tenant.base_rate_per_sec", tenant.base_rate_per_sec);
  visit("tenant.amplitude_per_sec", tenant.amplitude_per_sec);
  visit("tenant.period_sec", tenant.period_sec);
  visit("tenant.phase_sec", tenant.phase_sec);
  visit("tenant.initial_shards", tenant.initial_shards);
  visit("tenant.max_shards", tenant.max_shards);
  visit("tenant.initial_workers", tenant.initial_workers);
  visit("tenant.max_workers", tenant.max_workers);
  visit("tenant.initial_wcu", tenant.initial_wcu);
  visit("tenant.max_wcu", tenant.max_wcu);
  visit("tenant.reference_utilization_pct", tenant.reference_utilization_pct);
  visit("tenant.monitoring_period_sec", tenant.monitoring_period_sec);
  visit("tenant.arbitration_period_sec", tenant.arbitration_period_sec);

  visit("partition.arbitration_period_sec", config.arbitration_period_sec);
  visit("partition.replan_offset_sec", config.replan_offset_sec);
  visit("partition.horizon_sec", config.horizon_sec);
  visit("partition.workload_emit_period_sec",
        config.workload_emit_period_sec);
  visit("partition.storm_tick_period_sec", config.storm_tick_period_sec);
  visit("partition.solver_population", config.flow_solver.population_size);
  visit("partition.solver_generations", config.flow_solver.generations);
  visit("partition.warm_start", config.flow_incremental.warm_start);
  visit("partition.cache", config.flow_incremental.cache);
  visit("partition.stall_generations",
        config.flow_incremental.stall_generations);

  visit("capture.health_trigger", config.capture.health_trigger);
  visit("capture.health_eval_period_sec",
        config.capture.health_eval_period_sec);
  visit("capture.util_threshold", config.capture.util_threshold);
  visit("capture.slo_objective", config.capture.slo_objective);
  visit("capture.slo_fast_window_sec", config.capture.slo_fast_window_sec);
  visit("capture.slo_slow_window_sec", config.capture.slo_slow_window_sec);
}

/// A field's value text: doubles as %.17g, integers in decimal, bools
/// as true/false.
template <typename T>
std::string WriteField(const T& field) {
  if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, ArrivalPattern>) {
    return ArrivalPatternToString(field);
  } else if constexpr (std::is_same_v<T, bool>) {
    return field ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", field);
    return buf;
  } else {
    return std::to_string(static_cast<unsigned long long>(field));
  }
}

/// Reads a field's value text by common/parse.h's rules; an integer
/// field takes digits only, within its type's range.
template <typename T>
Status ReadField(const std::string& key, const std::string& value, T* field) {
  auto store = [&](auto parsed, const char* what) {
    if (parsed.ok()) {
      *field = static_cast<T>(*parsed);
      return Status::OK();
    }
    std::string message = "partition spec: bad ";
    message.append(what).append(" for '").append(key).append("': '");
    return Status::InvalidArgument(message.append(value).append("'"));
  };
  if constexpr (std::is_same_v<T, std::string>) {
    *field = value;
  } else if constexpr (std::is_same_v<T, ArrivalPattern>) {
    if (!ArrivalPatternFromString(value, field)) {
      return Status::InvalidArgument(
          "partition spec: unknown arrival pattern '" + value + "'");
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    return store(ParseBool(value), "bool");
  } else if constexpr (std::is_same_v<T, double>) {
    return store(ParseDouble(value), "number");
  } else {
    static_assert(std::is_integral_v<T>);
    constexpr auto kMax = static_cast<uint64_t>(std::numeric_limits<T>::max());
    return store(ParseUnsigned(value, kMax), "integer");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> SerializePartitionSpec(
    const TenantConfig& tenant, const PartitionConfig& config) {
  std::vector<std::pair<std::string, std::string>> spec;
  VisitSpec(tenant, config, [&spec](const char* key, const auto& field) {
    spec.emplace_back(key, WriteField(field));
  });
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
    bool known = false;
    Status status;
    VisitSpec(*tenant, *config, [&](const char* name, auto& field) {
      if (known || key != name) return;
      known = true;
      status = ReadField(key, value, &field);
    });
    if (!known) {
      return Status::InvalidArgument("partition spec: unknown key '" + key +
                                     "'");
    }
    FLOWER_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

}  // namespace flower::fleet
