#include "fleet/replay_harness.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "fleet/partition_spec.h"

namespace flower::fleet {

Result<std::unique_ptr<ReplayHarness>> ReplayHarness::Create(
    obs::replay::CaptureBundle bundle) {
  if (!bundle.trigger.fired) {
    return Status::InvalidArgument(
        "replay: bundle has no latched trigger (nothing to replay to)");
  }
  if (!std::isfinite(bundle.trigger.time)) {
    return Status::InvalidArgument(
        "replay: bundle trigger time must be finite");
  }
  if (obs::replay::FingerprintInputs(bundle.tenant_id, bundle.tenant_index,
                                     bundle.seed, bundle.spec,
                                     bundle.faults) != bundle.fingerprint) {
    FLOWER_LOG(Warning)
        << "replay: bundle fingerprint mismatch — seed/spec/fault inputs "
           "were altered since capture; the divergence checker will "
           "attribute the drift at decision granularity";
  }

  TenantConfig tenant;
  PartitionConfig pc;
  FLOWER_RETURN_NOT_OK(ParsePartitionSpec(bundle.spec, &tenant, &pc));

  // The bundle's identity fields win over the spec: a corrupted bundle
  // (e.g. a bumped seed) must replay with its own claimed inputs so the
  // checker can pin where the recorded chain stops matching.
  tenant.seed = bundle.seed;
  tenant.faults = bundle.faults;

  // Replay-rich overrides. None of these are part of the spec (or the
  // fingerprint): they change what is *observed*, never what is decided.
  pc.decision_capacity = 65536;
  pc.capture.enabled = true;
  pc.capture.recorder = bundle.recorder;
  pc.capture.bundle_dir.clear();  // A replay never re-dumps.

  auto harness = std::unique_ptr<ReplayHarness>(new ReplayHarness());
  FLOWER_ASSIGN_OR_RETURN(
      harness->partition_,
      FlowPartition::Create(tenant, pc, bundle.tenant_index));
  // Spans are recorded only from simulation events, none of which has
  // run yet, so the trace starts at id 1 like any other flow's.
  harness->partition_->telemetry().spans().set_enabled(true);

  // Stamp the replayed recorder with the bundle's inputs verbatim, so
  // its fingerprint answers "same inputs as the capture claims?" rather
  // than re-deriving from the reconstructed config.
  harness->partition_->recorder()->SetInputs(bundle.tenant_id,
                                             bundle.tenant_index, bundle.seed,
                                             bundle.spec, bundle.faults);

  // Grant playback: in the fleet, SetBudget lands at each arbitration
  // boundary before the period's sweep; the only reader is the re-plan
  // at boundary + replan_offset_sec, so scheduling the same values at
  // the same timestamps inside one continuous run is exact.
  FlowPartition* part = harness->partition_.get();
  for (const obs::replay::GrantEntry& g : bundle.grants) {
    double usd = g.grant_usd;
    FLOWER_RETURN_NOT_OK(part->sim().ScheduleAt(
        g.time, [part, usd]() { part->SetBudget(usd); }));
  }

  harness->bundle_ = std::move(bundle);
  return harness;
}

Status ReplayHarness::Run() {
  return partition_->AdvanceTo(bundle_.trigger.time);
}

obs::replay::DivergenceReport ReplayHarness::Check() const {
  return obs::replay::CompareReplay(bundle_, *partition_->recorder());
}

}  // namespace flower::fleet
