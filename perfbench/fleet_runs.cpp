#include "fleet_runs.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "fleet/budget_arbiter.h"
#include "fleet/flow_partition.h"

namespace flowerbench {

using flower::Status;
using flower::fleet::FlowPartition;
using flower::fleet::TenantConfig;

namespace {

/// Output checks over per-tenant rows: every row's window conserved
/// the budget, each tenant's windows tile [0, horizon], and each
/// tenant's control steps match its loop cadence. A tenant that fails
/// a tiling or cadence check fails all its rows.
RunChecks CheckRows(const std::vector<TenantConfig>& tenants,
                    const std::vector<std::vector<WindowRow>>& rows,
                    double horizon, uint64_t conservation_violations) {
  RunChecks c;
  auto fail = [&c](const std::string& why, uint64_t n) {
    c.failed_rows += n;
    if (c.first_failure.empty()) c.first_failure = why;
  };
  for (size_t i = 0; i < tenants.size(); ++i) {
    const std::vector<WindowRow>& tr = i < rows.size()
                                           ? rows[i]
                                           : std::vector<WindowRow>{};
    c.rows += tr.size();
    uint64_t steps = 0;
    bool tiled = !tr.empty() && tr.front().open == 0.0 &&
                 tr.back().close == horizon;
    for (size_t k = 0; k < tr.size(); ++k) {
      steps += tr[k].steps;
      if (k > 0 && tr[k].open != tr[k - 1].close) tiled = false;
      if (!tr[k].conserved) fail("window broke budget conservation", 1);
    }
    if (!tiled) {
      fail("tenant " + tenants[i].id + ": windows do not tile the horizon",
           tr.size());
    } else if (steps != ExpectedSteps(tenants[i], horizon)) {
      fail("tenant " + tenants[i].id + ": " + std::to_string(steps) +
               " control steps, cadence expects " +
               std::to_string(ExpectedSteps(tenants[i], horizon)),
           tr.size());
    }
  }
  if (conservation_violations != 0) {
    fail("sweep counted conservation violations", c.rows);
  }
  c.failed_rows = std::min(c.failed_rows, c.rows);
  return c;
}

}  // namespace

FleetRunResult RunFleetManager(const WorkloadSpec& w, uint64_t seed,
                               size_t threads, bool keep_detail) {
  FleetRunResult r;
  std::vector<TenantConfig> tenants = MakeTenants(w, seed);
  flower::fleet::FleetManager fm(MakeFleetConfig(w, threads));

  Clock::time_point t0 = Clock::now();
  for (const TenantConfig& t : tenants) {
    r.status = fm.AddTenant(t);
    if (!r.status.ok()) return r;
  }
  r.status = fm.Start();
  r.setup_s = SecondsSince(t0);
  if (!r.status.ok()) return r;

  Clock::time_point t1 = Clock::now();
  r.status = fm.RunFor(w.warmup_sec);
  double warm_s = SecondsSince(t1);
  if (!r.status.ok()) return r;
  r.rss_checkpoint_kib = CurrentRssKib();
  Clock::time_point t2 = Clock::now();
  r.status = fm.RunFor(w.measure_sec);
  r.runfor_s = warm_s + SecondsSince(t2);
  r.rss_end_kib = CurrentRssKib();
  r.peak_rss_kib = PeakRssKib();
  if (!r.status.ok()) return r;
  r.flow_sim_sec_per_wall_sec = static_cast<double>(tenants.size()) *
                                w.horizon_sec() / r.runfor_s;

  // Tenant ids are "t%04zu" of their index, but map them explicitly.
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < tenants.size(); ++i) index[tenants[i].id] = i;
  r.rows.resize(tenants.size());
  for (const flower::fleet::FleetPeriodReport& rep : fm.reports()) {
    for (const flower::fleet::TenantPeriodOutcome& row : rep.tenants) {
      WindowRow wr;
      wr.open = rep.start;
      wr.close = rep.end;
      wr.demand = row.demand_usd;
      wr.grant = row.grant_usd;
      wr.spend = row.spend_usd;
      wr.steps = row.steps;
      wr.conserved = rep.conservation_ok;
      wr.uncontended = rep.uncontended;
      r.rows[index.at(row.tenant)].push_back(wr);
    }
  }
  r.sweep = fm.sweep_stats();
  r.checks = CheckRows(tenants, r.rows, w.horizon_sec(),
                       r.sweep.conservation_violations);
  r.checks.windows = fm.reports().size();
  for (const flower::fleet::FleetPeriodReport& rep : fm.reports()) {
    if (!rep.uncontended) ++r.checks.contended_windows;
  }
  r.digest_hash = HashHex(fm.ControlDigest());
  for (size_t i = 0; i < fm.num_tenants(); ++i) {
    FlowPartition* p = fm.partition(i);
    r.events += p->sim().events_executed();
    r.steps += p->StepsTaken();
    flower::Result<flower::core::PlannerCounters> pc =
        p->manager().ReplanCounters();
    if (pc.ok()) {
      r.planner.cache_hits += pc->cache_hits;
      r.planner.cache_misses += pc->cache_misses;
      r.planner.evaluations += pc->evaluations;
    }
    if (keep_detail) {
      std::string d;
      p->AppendDigest(&d);
      r.partition_digests.push_back(std::move(d));
    }
  }
  if (!keep_detail) r.rows.clear();
  return r;
}

namespace {

/// The traced sweep's state across its RunFor-equivalent segments.
struct TracedSweep {
  std::vector<TenantConfig> tenants;
  std::vector<std::unique_ptr<FlowPartition>> parts;
  std::unique_ptr<flower::fleet::BudgetArbiter> arbiter;
  double budget = 0.0;
  TracedSweepResult* out = nullptr;

  static uint64_t Replans(FlowPartition& p) {
    flower::Result<flower::core::PlannerCounters> c =
        p.manager().ReplanCounters();
    return c.ok() ? c->cache_hits + c->cache_misses : 0;
  }

  /// AdvanceTo(t), one simulation event at a time. A sentinel event at
  /// `t` ends the stepping; each event's wall time goes to the control
  /// loops when it appended a decision, to the re-planner when it ran
  /// a re-plan, and to the flow's services otherwise. The closing
  /// AdvanceTo(t) runs any event scheduled at `t` after the sentinel,
  /// exactly as one AdvanceTo(t) would. The sentinel takes a sequence
  /// number but never reorders the partition's own events.
  Status StepTo(FlowPartition* p, double t) {
    Clock::time_point t0 = Clock::now();
    bool reached = false;
    FLOWER_RETURN_NOT_OK(
        p->sim().ScheduleAt(t, [&reached] { reached = true; }));
    ++out->sentinels;
    while (!reached) {
      uint64_t steps = p->StepsTaken();
      uint64_t replans = Replans(*p);
      Clock::time_point ts = Clock::now();
      if (!p->sim().Step()) break;
      double dt = SecondsSince(ts);
      if (reached) break;
      if (p->StepsTaken() != steps) {
        out->control_s += dt;
      } else if (Replans(*p) != replans) {
        out->replan_s += dt;
      } else {
        out->services_s += dt;
      }
    }
    Status st = p->AdvanceTo(t);
    out->advance_s += SecondsSince(t0);
    return st;
  }

  /// One RunFor(target - start): the 1-thread work-stealing schedule
  /// unrolled in virtual-time order. Boundaries are grouped by exact
  /// time into events; at each event every participant advances from
  /// its previous boundary, reports its demand, and the event is
  /// arbitrated over the remainder budget.
  Status Segment(double start, double target) {
    size_t n = parts.size();
    std::vector<std::vector<double>> bounds(n);
    std::vector<std::pair<double, uint32_t>> marks;
    for (size_t i = 0; i < n; ++i) {
      double period = parts[i]->effective_period_sec();
      for (uint64_t k = 0;; ++k) {
        double b = start + static_cast<double>(k) * period;
        if (b >= target) break;
        bounds[i].push_back(b);
        marks.emplace_back(b, static_cast<uint32_t>(i));
      }
    }
    std::sort(marks.begin(), marks.end());
    std::vector<std::vector<WindowRow>> win(n);
    std::vector<std::vector<uint64_t>> steps_open(n), steps_close(n);
    for (size_t i = 0; i < n; ++i) {
      win[i].resize(bounds[i].size());
      steps_open[i].assign(bounds[i].size(), 0);
      steps_close[i].assign(bounds[i].size(), 0);
      for (size_t k = 0; k < bounds[i].size(); ++k) {
        win[i][k].open = bounds[i][k];
        win[i][k].close =
            k + 1 < bounds[i].size() ? bounds[i][k + 1] : target;
      }
    }
    std::vector<double> current_grant(n, 0.0);
    std::vector<size_t> next_k(n, 0);
    std::vector<uint32_t> who;
    std::vector<double> demands, weights;

    Clock::time_point sweep_t0 = Clock::now();
    size_t m = 0;
    while (m < marks.size()) {
      double time = marks[m].first;
      who.clear();
      while (m < marks.size() && marks[m].first == time) {
        who.push_back(marks[m].second);
        ++m;
      }
      size_t p = who.size();
      demands.assign(p, 0.0);
      weights.assign(p, 0.0);
      for (size_t idx = 0; idx < p; ++idx) {
        uint32_t i = who[idx];
        size_t k = next_k[i]++;
        if (k > 0) FLOWER_RETURN_NOT_OK(StepTo(parts[i].get(), time));
        Clock::time_point td = Clock::now();
        double demand = parts[i]->DemandUsdPerHour();
        double spend = parts[i]->SpendUsdPerHour();
        uint64_t steps = parts[i]->StepsTaken();
        out->demand_s.push_back(SecondsSince(td));
        if (k > 0) {
          win[i][k - 1].spend = spend;
          steps_close[i][k - 1] = steps;
        }
        win[i][k].demand = demand;
        steps_open[i][k] = steps;
        demands[idx] = demand;
        weights[idx] = tenants[i].budget_weight;
      }
      // Same arithmetic, in the same order, as the fleet's sweep.
      double held = 0.0;
      for (size_t j = 0; j < n; ++j) held += current_grant[j];
      for (size_t idx = 0; idx < p; ++idx) held -= current_grant[who[idx]];
      double remainder = std::max(0.0, budget - held);
      Clock::time_point tarb = Clock::now();
      flower::Result<flower::fleet::BudgetSplit> split =
          arbiter->Arbitrate(demands, weights, remainder);
      out->arbitrate_s.push_back(SecondsSince(tarb));
      if (!split.ok()) return split.status();
      ++out->arbitrate_calls;
      if (!split->uncontended) ++out->contended_calls;
      for (size_t idx = 0; idx < p; ++idx) {
        current_grant[who[idx]] = split->grants_usd[idx];
      }
      double active = 0.0;
      for (size_t j = 0; j < n; ++j) active += current_grant[j];
      bool conserved =
          split->conserved && active <= budget * (1.0 + 1e-9) + 1e-12;
      for (size_t idx = 0; idx < p; ++idx) {
        uint32_t i = who[idx];
        WindowRow& row = win[i][next_k[i] - 1];
        row.grant = split->grants_usd[idx];
        row.conserved = conserved;
        row.uncontended = split->uncontended;
        parts[i]->SetBudget(row.grant);
        parts[i]->RecordGrant(time, demands[idx], row.grant);
        out->grants[i].push_back(row.grant);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      FLOWER_RETURN_NOT_OK(StepTo(parts[i].get(), target));
      if (win[i].empty()) continue;
      win[i].back().spend = parts[i]->SpendUsdPerHour();
      steps_close[i].back() = parts[i]->StepsTaken();
    }
    out->sweep_s += SecondsSince(sweep_t0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < win[i].size(); ++k) {
        win[i][k].steps = steps_close[i][k] - steps_open[i][k];
        out->rows[i].push_back(win[i][k]);
      }
    }
    return Status::OK();
  }
};

}  // namespace

TracedSweepResult RunTracedSweep(const WorkloadSpec& w, uint64_t seed) {
  TracedSweepResult r;
  TracedSweep s;
  s.out = &r;
  s.tenants = MakeTenants(w, seed);
  flower::fleet::FleetConfig fc = MakeFleetConfig(w, 1);
  // FleetManager's constructor ties the partition re-plan cadence to
  // the arbitration cadence; the traced sweep does the same.
  flower::fleet::PartitionConfig pc = fc.partition;
  pc.arbitration_period_sec = fc.arbitration_period_sec;
  flower::fleet::ArbiterConfig ac;
  ac.fleet_budget_usd_per_hour = fc.fleet_budget_usd_per_hour;
  ac.starvation_floor_frac = fc.starvation_floor_frac;
  ac.solver = fc.arbiter_solver;
  ac.solver.num_threads = 1;
  s.arbiter = std::make_unique<flower::fleet::BudgetArbiter>(ac);
  s.budget = fc.fleet_budget_usd_per_hour;

  size_t n = s.tenants.size();
  r.rows.resize(n);
  r.grants.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Clock::time_point t0 = Clock::now();
    flower::Result<std::unique_ptr<FlowPartition>> p =
        FlowPartition::Create(s.tenants[i], pc, i);
    r.create_s += SecondsSince(t0);
    if (!p.ok()) {
      r.status = p.status();
      return r;
    }
    s.parts.push_back(p.MoveValueOrDie());
  }
  r.status = s.Segment(0.0, w.warmup_sec);
  if (r.status.ok()) r.status = s.Segment(w.warmup_sec, w.horizon_sec());
  if (!r.status.ok()) return r;
  r.flow_sim_sec_per_wall_sec =
      static_cast<double>(n) * w.horizon_sec() / r.sweep_s;
  for (const std::unique_ptr<FlowPartition>& p : s.parts) {
    r.events += p->sim().events_executed();
    r.steps += p->StepsTaken();
    std::string d;
    p->AppendDigest(&d);
    r.partition_digests.push_back(std::move(d));
  }
  r.events -= r.sentinels;  // The sweep's own events, not the flow's.
  return r;
}

std::string CompareFidelity(const FleetRunResult& ref,
                            const TracedSweepResult& traced) {
  if (ref.events != traced.events) {
    return "events " + std::to_string(traced.events) + " vs " +
           std::to_string(ref.events);
  }
  if (ref.steps != traced.steps) {
    return "steps " + std::to_string(traced.steps) + " vs " +
           std::to_string(ref.steps);
  }
  if (ref.sweep.arbitration_events != traced.arbitrate_calls) {
    return "arbitrations " + std::to_string(traced.arbitrate_calls) + " vs " +
           std::to_string(ref.sweep.arbitration_events);
  }
  if (ref.rows.size() != traced.rows.size() ||
      ref.partition_digests.size() != traced.partition_digests.size()) {
    return "tenant count differs";
  }
  for (size_t i = 0; i < ref.rows.size(); ++i) {
    if (ref.partition_digests[i] != traced.partition_digests[i]) {
      return "partition " + std::to_string(i) + " digest differs";
    }
    const std::vector<WindowRow>& a = ref.rows[i];
    const std::vector<WindowRow>& b = traced.rows[i];
    if (a.size() != b.size()) {
      return "partition " + std::to_string(i) + " window count differs";
    }
    for (size_t k = 0; k < a.size(); ++k) {
      if (a[k].open != b[k].open || a[k].close != b[k].close ||
          a[k].demand != b[k].demand || a[k].grant != b[k].grant ||
          a[k].spend != b[k].spend || a[k].steps != b[k].steps ||
          a[k].conserved != b[k].conserved ||
          a[k].uncontended != b[k].uncontended) {
        return "partition " + std::to_string(i) + " window " +
               std::to_string(k) + " differs";
      }
    }
  }
  return "";
}

}  // namespace flowerbench
