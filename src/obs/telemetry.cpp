#include "obs/telemetry.h"

#include <cmath>
#include <utility>

namespace flower::obs {

void Telemetry::NoteFault(const std::string& target, FaultMask bits,
                          SimTime now) {
  FaultNote& note = fault_notes_[target];
  if (note.time == now) {
    note.mask = static_cast<FaultMask>(note.mask | bits);
  } else {
    note.time = now;
    note.mask = bits;
  }
}

FaultMask Telemetry::FaultMaskAt(const std::string& target,
                                 SimTime now) const {
  auto it = fault_notes_.find(target);
  if (it == fault_notes_.end() || it->second.time != now) return 0;
  return it->second.mask;
}

Status Telemetry::ExportTrace(const std::string& path) const {
  return ExportToFile(path, [this](std::ostream& os) {
    WriteChromeTrace(os, spans_, decisions_);
  });
}

Status Telemetry::ExportJsonl(const std::string& path, SimTime at) const {
  MetricsSnapshot snapshot = metrics_.Snapshot();
  return ExportToFile(path, [&](std::ostream& os) {
    WriteDecisionJsonl(os, decisions_);
    WriteSnapshotJsonl(os, snapshot, at);
  });
}

std::function<void(const opt::Nsga2GenerationStats&)> MakeNsga2Observer(
    Telemetry* telemetry, std::string planner_name, SimTime anchor,
    double slice_sec) {
  telemetry->spans().SetTrackName(kTracePid, kPlannerTid,
                                  "planner:" + planner_name);
  Counter* generations = telemetry->metrics().GetCounter(
      "nsga2.generations", {{"planner", planner_name}});
  Gauge* front_size = telemetry->metrics().GetGauge(
      "nsga2.front_size", {{"planner", planner_name}});
  Gauge* hypervolume = telemetry->metrics().GetGauge(
      "nsga2.hypervolume", {{"planner", planner_name}});
  Gauge* evaluations = telemetry->metrics().GetGauge(
      "nsga2.evaluations", {{"planner", planner_name}});
  Gauge* stalled = telemetry->metrics().GetGauge(
      "nsga2.stalled_generations", {{"planner", planner_name}});
  return [telemetry, planner_name = std::move(planner_name), anchor,
          slice_sec, generations, front_size, hypervolume, evaluations,
          stalled](const opt::Nsga2GenerationStats& s) {
    generations->Increment();
    front_size->Set(static_cast<double>(s.front_size));
    evaluations->Set(static_cast<double>(s.evaluations));
    stalled->Set(static_cast<double>(s.stalled_generations));
    if (!std::isnan(s.hypervolume)) hypervolume->Set(s.hypervolume);

    // The optimizer runs outside the simulation clock; generations are
    // drawn as consecutive schematic slices from the planning instant,
    // each a kGeneration child of the active kPlan span. The observer
    // only fires on the coordinator thread, so this is deterministic at
    // any solver thread count.
    SimTime t0 = anchor + static_cast<double>(s.generation) * slice_sec;
    telemetry->spans().Emit(
        SpanKind::kGeneration, planner_name, t0, slice_sec, kTracePid,
        kPlannerTid, telemetry->active_plan_span(), /*follows=*/0,
        static_cast<double>(s.front_size));
  };
}

}  // namespace flower::obs
