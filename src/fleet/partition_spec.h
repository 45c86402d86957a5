#ifndef FLOWER_FLEET_PARTITION_SPEC_H_
#define FLOWER_FLEET_PARTITION_SPEC_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "fleet/flow_partition.h"
#include "fleet/tenant.h"

namespace flower::fleet {

/// Serializes every *decision-relevant* knob of (tenant, partition) as
/// ordered (key, value) pairs — the flight recorder's config spec. Two
/// runs with equal specs (and equal seed/faults/grants) produce the
/// same control digest, so the spec deliberately EXCLUDES knobs that
/// cannot change decisions: the decision-log ring capacity. Replay
/// overrides it (and turns span recording on), so bundle fingerprints
/// still match.
std::vector<std::pair<std::string, std::string>> SerializePartitionSpec(
    const TenantConfig& tenant, const PartitionConfig& config);

/// Rebuilds (tenant, partition) from a serialized spec on top of the
/// callers' defaults. Every key must be one SerializePartitionSpec
/// writes, at most once: a misspelt or repeated key would otherwise
/// replay under a default or a later value and report a false
/// divergence (the bundle schema check already rejects newer bundles).
/// Errors: unknown or duplicate key, malformed numeric value, unknown
/// arrival pattern.
Status ParsePartitionSpec(
    const std::vector<std::pair<std::string, std::string>>& spec,
    TenantConfig* tenant, PartitionConfig* config);

}  // namespace flower::fleet

#endif  // FLOWER_FLEET_PARTITION_SPEC_H_
