#include "fleet/fleet_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "obs/exporters.h"

namespace flower::fleet {

FleetManager::FleetManager(FleetConfig config) : config_(std::move(config)) {
  // The partition re-plan cadence is the arbitration cadence — a flow
  // re-plans exactly once under each grant. Tenants with their own
  // arbitration_period_sec override this per partition.
  config_.partition.arbitration_period_sec = config_.arbitration_period_sec;
}

Status FleetManager::AddTenant(TenantConfig tenant) {
  if (started_) {
    return Status::FailedPrecondition(
        "FleetManager: AddTenant must precede Start");
  }
  FLOWER_RETURN_NOT_OK(ValidateTenant(tenant, config_.partition));
  for (const TenantConfig& t : tenants_) {
    if (t.id == tenant.id) {
      return Status::AlreadyExists("FleetManager: duplicate tenant id '" +
                                   tenant.id + "'");
    }
  }
  tenants_.push_back(std::move(tenant));
  return Status::OK();
}

Status FleetManager::Start() {
  if (started_) {
    return Status::FailedPrecondition("FleetManager: already started");
  }
  if (tenants_.empty()) {
    return Status::InvalidArgument("FleetManager: no tenants");
  }
  // Written so NaN fails it.
  if (!(std::isfinite(config_.fleet_budget_usd_per_hour) &&
        config_.fleet_budget_usd_per_hour >= 0.0 &&
        config_.starvation_floor_frac >= 0.0 &&
        config_.starvation_floor_frac <= 1.0 &&
        std::isfinite(config_.arbitration_period_sec) &&
        config_.arbitration_period_sec > config_.partition.replan_offset_sec)) {
    return Status::InvalidArgument(
        "FleetManager: need a finite fleet budget >= 0, a starvation floor "
        "in [0, 1] and a finite arbitration period above the re-plan offset");
  }
  FLOWER_RETURN_NOT_OK(exec::CheckThreadCount(config_.num_threads,
                                              "FleetManager: num_threads"));
  ArbiterConfig ac;
  ac.fleet_budget_usd_per_hour = config_.fleet_budget_usd_per_hour;
  ac.starvation_floor_frac = config_.starvation_floor_frac;
  ac.solver = config_.arbiter_solver;
  // Arbitrations run *inside* worker tasks, so the solver stays
  // single-threaded rather than nesting a pool in the sweep's.
  ac.solver.num_threads = 1;
  arbiter_ = std::make_unique<BudgetArbiter>(ac);
  pool_ = std::make_unique<exec::ThreadPool>(config_.num_threads);
  partitions_.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    FLOWER_ASSIGN_OR_RETURN(
        std::unique_ptr<FlowPartition> p,
        FlowPartition::Create(tenants_[i], config_.partition, i));
    partitions_.push_back(std::move(p));
  }
  if (config_.partition.record_spans) {
    arb_spans_ = std::make_unique<obs::SpanCollector>();
    FLOWER_RETURN_NOT_OK(arb_spans_->set_id_offset(
        static_cast<obs::SpanId>(tenants_.size()) *
        obs::SpanCollector::kIdStride));
    arb_spans_->set_enabled(true);
  }
  started_ = true;
  return Status::OK();
}

/// Work-stealing event engine of one RunFor call.
///
/// Each tenant's arbitration boundaries {start + k * P_i : < target}
/// are precomputed as its windows and grouped by exact virtual time
/// into events. A tenant task advances its partition boundary to
/// boundary; at each one it closes its previous window and writes its
/// demand into the next, then counts itself in at the boundary's
/// event. The event whose every participant has arrived is arbitrated
/// — strictly in ascending virtual-time order, under a single-flight
/// token — over the fleet budget minus the grants currently held by
/// tenants *not* at this boundary, which is what conserves the budget
/// per overlapping window. The grants go into the same windows; a
/// tenant whose event has not been arbitrated yet parks (its task
/// returns) and is re-spawned by the arbitration that answers it, so
/// only that tenant waits — never the fleet.
///
/// Determinism: boundary times and event order are pure functions of
/// the tenant configs; demands are pure functions of each partition's
/// own simulation at the boundary; the remainder budget at an event
/// depends only on grants from earlier events (ascending-order
/// processing). No result anywhere depends on which worker ran what.
struct FleetManager::SweepEngine {
  struct TenantState {
    size_t k = 0;  ///< Current window; the task owns it.
    /// Park baton: set by the tenant task before it returns to wait,
    /// cleared by whoever takes responsibility for resuming it (the
    /// arbitration that answers it, or the task itself when the event
    /// is published inside the park window). Exactly one side wins the
    /// exchange, so the tenant is resumed exactly once.
    std::atomic<bool> parked{false};
  };

  /// One tenant's window. The tenant task writes the demand and the
  /// opening step count before it arrives at the opening event, and the
  /// spend and closing step count when it reaches the next boundary
  /// (Finalize closes the last window); the event writes the grant
  /// before it is published.
  struct Window {
    SimTime open = 0.0, close = 0.0;
    size_t event = 0;  ///< The event at `open`.
    double demand = 0.0, grant = 0.0, spend = 0.0;
    uint64_t steps_open = 0, steps_close = 0;
    bool conserved = false, uncontended = false;
  };

  struct Event {
    SimTime time = 0.0;
    std::vector<uint32_t> participants;    ///< Tenant index, ascending.
    std::vector<uint32_t> boundary_index;  ///< Participant's k at time.
    std::atomic<uint32_t> arrived{0};
  };

  FleetManager& fm;
  SimTime start, target;
  std::unique_ptr<TenantState[]> states;
  std::unique_ptr<Event[]> events;
  size_t num_events = 0;
  /// windows[i][k] = tenant i's window opening at its k-th boundary.
  std::vector<std::vector<Window>> windows;
  std::vector<double> current_grant;  ///< Guarded by events_mu.
  std::mutex events_mu;               ///< Single-flight processing token.
  /// Events below this index are arbitrated. Written under events_mu,
  /// or by Build before any task runs.
  std::atomic<size_t> next_event{0};

  SweepEngine(FleetManager& fleet, SimTime start_t, SimTime target_t)
      : fm(fleet), start(start_t), target(target_t) {}

  /// Lays out the windows and events, then arbitrates the start
  /// boundary, which every tenant shares, on the calling thread.
  Status Build() {
    size_t n = fm.partitions_.size();
    states = std::make_unique<TenantState[]>(n);
    windows.resize(n);
    current_grant.assign(n, 0.0);
    std::vector<std::pair<SimTime, uint32_t>> marks;  // (time, tenant)
    for (size_t i = 0; i < n; ++i) {
      double period = fm.partitions_[i]->effective_period_sec();
      if (period <= 0.0 || !std::isfinite(period)) {
        return Status::InvalidArgument(
            "FleetManager: non-positive arbitration period for tenant '" +
            fm.tenants_[i].id + "'");
      }
      for (uint64_t k = 0;; ++k) {
        SimTime b = start + static_cast<double>(k) * period;
        if (b >= target) break;
        windows[i].emplace_back().open = b;
        marks.emplace_back(b, static_cast<uint32_t>(i));
      }
      for (size_t k = 0; k < windows[i].size(); ++k) {
        windows[i][k].close =
            k + 1 < windows[i].size() ? windows[i][k + 1].open : target;
      }
    }
    // Group boundary marks sharing an exact virtual time into events
    // (ApplyPeriodJitter's divisor periods make shared boundaries
    // bit-exact). Sorted by (time, tenant), so participants ascend.
    std::sort(marks.begin(), marks.end());
    std::vector<size_t> event_start;
    for (size_t m = 0; m < marks.size(); ++m) {
      if (m == 0 || marks[m].first != marks[m - 1].first) {
        event_start.push_back(m);
      }
    }
    num_events = event_start.size();
    events = std::make_unique<Event[]>(num_events);
    // Marks are sorted, so each tenant's boundaries stream by in
    // ascending order — a per-tenant cursor recovers the boundary
    // index without any time matching.
    std::vector<uint32_t> next_k(n, 0);
    for (size_t e = 0; e < num_events; ++e) {
      size_t lo = event_start[e];
      size_t hi = e + 1 < num_events ? event_start[e + 1] : marks.size();
      Event& ev = events[e];
      ev.time = marks[lo].first;
      for (size_t m = lo; m < hi; ++m) {
        uint32_t i = marks[m].second;
        uint32_t k = next_k[i]++;
        windows[i][k].event = e;
        ev.participants.push_back(i);
        ev.boundary_index.push_back(k);
      }
    }
    const Event& first = events[0];
    for (size_t idx = 0; idx < first.participants.size(); ++idx) {
      Arrive(first.participants[idx], first.boundary_index[idx]);
    }
    return ProcessEvent(0);
  }

  /// Tenant i's partition sits at its k-th boundary: close window k-1,
  /// open window k, and count the tenant in at the window's event (the
  /// increment releases the window writes to the event's processor).
  void Arrive(uint32_t i, size_t k) {
    const FlowPartition& part = *fm.partitions_[i];
    uint64_t steps = part.StepsTaken();
    if (k > 0) {
      windows[i][k - 1].spend = part.SpendUsdPerHour();
      windows[i][k - 1].steps_close = steps;
    }
    Window& w = windows[i][k];
    w.demand = part.DemandUsdPerHour();
    w.steps_open = steps;
    events[w.event].arrived.fetch_add(1);
  }

  bool EventReady(size_t e) const {
    return events[e].arrived.load() ==
           static_cast<uint32_t>(events[e].participants.size());
  }

  /// Arbitrates event `e` from its participants' window demands, writes
  /// their grants, and publishes the event. Runs under events_mu, or on
  /// the calling thread before any task starts.
  Status ProcessEvent(size_t e) {
    Event& ev = events[e];
    size_t p = ev.participants.size();
    std::vector<double> demands(p), weights(p);
    for (size_t idx = 0; idx < p; ++idx) {
      uint32_t i = ev.participants[idx];
      demands[idx] = windows[i][ev.boundary_index[idx]].demand;
      weights[idx] = fm.tenants_[i].budget_weight;
    }
    // Remainder budget: the fleet budget minus grants still held by
    // tenants whose windows straddle this boundary.
    double held = 0.0;
    for (size_t j = 0; j < current_grant.size(); ++j) held += current_grant[j];
    for (size_t idx = 0; idx < p; ++idx) {
      held -= current_grant[ev.participants[idx]];
    }
    double budget = fm.config_.fleet_budget_usd_per_hour;
    double remainder = std::max(0.0, budget - held);
    FLOWER_ASSIGN_OR_RETURN(BudgetSplit split,
                            fm.arbiter_->Arbitrate(demands, weights,
                                                   remainder));
    for (size_t idx = 0; idx < p; ++idx) {
      current_grant[ev.participants[idx]] = split.grants_usd[idx];
    }
    double active = 0.0;
    for (size_t j = 0; j < current_grant.size(); ++j) {
      active += current_grant[j];
    }
    bool conserved =
        split.conserved && active <= budget * (1.0 + 1e-9) + 1e-12;
    if (!conserved) ++fm.stats_.conservation_violations;
    ++fm.stats_.arbitration_events;
    if (fm.arb_spans_ != nullptr) {
      fm.arb_spans_->Emit(obs::SpanKind::kArbitrate, "arbitrate", ev.time,
                          0.0, 1, 0, 0, 0, split.total_granted_usd);
    }
    for (size_t idx = 0; idx < p; ++idx) {
      Window& w = windows[ev.participants[idx]][ev.boundary_index[idx]];
      w.grant = split.grants_usd[idx];
      w.conserved = conserved;
      w.uncontended = split.uncontended;
    }
    // Sequentially consistent, like the tenant's park check: a tenant
    // that parks after this store sees the event published, and one
    // that parked before it has its baton taken by the caller.
    next_event.store(e + 1);
    return Status::OK();
  }

  /// Drains ready events in ascending virtual-time order, resuming
  /// parked participants only after their event is published (a tenant
  /// resumed earlier could miss its grant and park with no one left to
  /// wake it). try_lock + recheck-after-unlock: a thread that loses the
  /// token returns, and the holder re-checks after releasing so an
  /// event made ready during its critical section is never stranded.
  Status ProcessReadyEvents(exec::ThreadPool::TaskContext& ctx) {
    for (;;) {
      if (!events_mu.try_lock()) return Status::OK();
      Status st = Status::OK();
      while (st.ok()) {
        size_t e = next_event.load(std::memory_order_relaxed);
        if (e >= num_events || !EventReady(e)) break;
        st = ProcessEvent(e);
        if (!st.ok()) break;
        for (uint32_t i : events[e].participants) {
          if (states[i].parked.exchange(false)) ctx.Spawn(i);
        }
      }
      events_mu.unlock();
      if (!st.ok()) return st;
      size_t e = next_event.load();
      if (e >= num_events || !EventReady(e)) return Status::OK();
    }
  }

  /// One tenant's task body. Applies each window's grant and runs the
  /// partition to the window's close, parking at boundaries whose event
  /// has not been arbitrated yet.
  Status TenantTask(uint64_t id, exec::ThreadPool::TaskContext& ctx) {
    uint32_t i = static_cast<uint32_t>(id);
    TenantState& s = states[i];
    FlowPartition* part = fm.partitions_[i].get();
    for (;;) {
      const Window& w = windows[i][s.k];
      if (next_event.load(std::memory_order_acquire) <= w.event) {
        s.parked.store(true);
        // The event may be published inside the park window: whoever
        // wins the baton back resumes the tenant, and a loss means
        // the arbitration has already spawned it.
        if (next_event.load() <= w.event || !s.parked.exchange(false)) {
          return Status::OK();
        }
      }
      part->SetBudget(w.grant);
      part->RecordGrant(w.open, w.demand, w.grant);
      FLOWER_RETURN_NOT_OK(part->AdvanceTo(w.close));
      if (s.k + 1 >= windows[i].size()) return Status::OK();
      Arrive(i, ++s.k);
      FLOWER_RETURN_NOT_OK(ProcessReadyEvents(ctx));
    }
  }

  /// Post-sweep merge on the calling thread: close the final windows
  /// from live partition state, then append the reports in (close,
  /// open, tenant) order, so a homogeneous fleet reads period by period
  /// in tenant order.
  void Finalize() {
    size_t n = fm.partitions_.size();
    for (size_t i = 0; i < n; ++i) {
      if (windows[i].empty()) continue;
      Window& last = windows[i].back();
      last.spend = fm.partitions_[i]->SpendUsdPerHour();
      last.steps_close = fm.partitions_[i]->StepsTaken();
    }
    // (tenant, boundary) refs sorted into emission order.
    std::vector<std::pair<uint32_t, uint32_t>> order;
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < windows[i].size(); ++k) {
        order.emplace_back(static_cast<uint32_t>(i),
                           static_cast<uint32_t>(k));
      }
    }
    std::sort(order.begin(), order.end(),
              [this](const std::pair<uint32_t, uint32_t>& a,
                     const std::pair<uint32_t, uint32_t>& b) {
                const Window& wa = windows[a.first][a.second];
                const Window& wb = windows[b.first][b.second];
                if (wa.close != wb.close) return wa.close < wb.close;
                if (wa.open != wb.open) return wa.open < wb.open;
                return a.first < b.first;
              });
    size_t groups = 0;
    for (size_t m = 0; m < order.size(); ++m) {
      const Window& w = windows[order[m].first][order[m].second];
      if (m == 0) {
        ++groups;
        continue;
      }
      const Window& prev = windows[order[m - 1].first][order[m - 1].second];
      if (w.close != prev.close || w.open != prev.open) ++groups;
    }
    fm.reports_.reserve(fm.reports_.size() + groups);

    size_t m = 0;
    while (m < order.size()) {
      const Window& head = windows[order[m].first][order[m].second];
      size_t hi = m;
      double granted = 0.0;
      while (hi < order.size()) {
        const Window& w = windows[order[hi].first][order[hi].second];
        if (w.close != head.close || w.open != head.open) break;
        granted += w.grant;
        ++hi;
      }
      FleetPeriodReport report;
      report.start = head.open;
      report.end = head.close;
      report.total_granted_usd = granted;
      report.conservation_ok = head.conserved;
      report.uncontended = head.uncontended;
      report.tenants.reserve(hi - m);
      for (; m < hi; ++m) {
        uint32_t i = order[m].first;
        const Window& w = windows[i][order[m].second];
        TenantPeriodOutcome row;
        row.tenant = fm.tenants_[i].id;
        row.demand_usd = w.demand;
        row.grant_usd = w.grant;
        row.spend_usd = w.spend;
        row.steps = w.steps_close - w.steps_open;
        report.tenants.push_back(std::move(row));
      }
      fm.reports_.push_back(std::move(report));
    }
  }
};

Status FleetManager::RunFor(double horizon_sec) {
  if (!started_) {
    return Status::FailedPrecondition("FleetManager: not started");
  }
  // A non-finite horizon would never reach its last boundary.
  if (!std::isfinite(horizon_sec) || horizon_sec < 0.0) {
    return Status::InvalidArgument(
        "FleetManager: horizon must be finite and >= 0");
  }
  SimTime target = now_ + horizon_sec;
  // A horizon too short to move the clock holds no boundary to run.
  if (target == now_) return Status::OK();
  auto t0 = std::chrono::steady_clock::now();
  SweepEngine engine(*this, now_, target);
  FLOWER_RETURN_NOT_OK(engine.Build());
  exec::TaskStats ts;
  FLOWER_RETURN_NOT_OK(pool_->RunTasks(
      partitions_.size(),
      [&engine](uint64_t id, exec::ThreadPool::TaskContext& ctx) {
        return engine.TenantTask(id, ctx);
      },
      &ts));
  if (engine.next_event.load() != engine.num_events) {
    return Status::Internal("FleetManager: sweep ended with unprocessed "
                            "arbitration events");
  }
  stats_.tasks_executed += ts.executed;
  stats_.mailbox_waits += ts.spawned;  // Each park ends in one Spawn.
  stats_.steals += ts.steals;
  stats_.busy_sec += ts.busy_sec;
  engine.Finalize();
  now_ = engine.target;
  stats_.wall_sec +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Status::OK();
}

std::string FleetManager::ControlDigest() const {
  std::string out;
  char buf[160];
  for (const FleetPeriodReport& r : reports_) {
    std::snprintf(buf, sizeof(buf), "period t=[%.3f,%.3f] granted=%.6f\n",
                  r.start, r.end, r.total_granted_usd);
    out += buf;
    for (const TenantPeriodOutcome& t : r.tenants) {
      // The id stays out of the fixed buffer, so an id of any length
      // keeps its row's fields and newline.
      out += "  ";
      out += t.tenant;
      std::snprintf(buf, sizeof(buf),
                    " demand=%.6f grant=%.6f spend=%.6f steps=%llu\n",
                    t.demand_usd, t.grant_usd, t.spend_usd,
                    static_cast<unsigned long long>(t.steps));
      out += buf;
    }
  }
  for (const std::unique_ptr<FlowPartition>& p : partitions_) {
    p->AppendDigest(&out);
  }
  return out;
}

Status FleetManager::DumpBundle(size_t index, const std::string& path) {
  if (index >= partitions_.size()) {
    return Status::OutOfRange("FleetManager: tenant index out of range");
  }
  return partitions_[index]->DumpBundle(path);
}

std::vector<std::string> FleetManager::CapturedBundles() const {
  std::vector<std::string> out;
  for (const std::unique_ptr<FlowPartition>& p : partitions_) {
    const std::vector<std::string>& paths = p->bundle_paths();
    out.insert(out.end(), paths.begin(), paths.end());
  }
  return out;
}

Status FleetManager::ExportReportsJsonl(const std::string& path) const {
  return obs::ExportToFile(path, [this](std::ostream& os) {
    char buf[64];
    auto num = [&buf](double v) {
      std::snprintf(buf, sizeof(buf), "%.6f", v);
      return std::string(buf);
    };
    for (const FleetPeriodReport& r : reports_) {
      for (const TenantPeriodOutcome& t : r.tenants) {
        os << "{\"start\":" << num(r.start) << ",\"end\":" << num(r.end)
           << ",\"tenant\":\"" << obs::internal::JsonEscape(t.tenant)
           << "\",\"demand_usd\":" << num(t.demand_usd)
           << ",\"grant_usd\":" << num(t.grant_usd)
           << ",\"spend_usd\":" << num(t.spend_usd) << ",\"steps\":" << t.steps
           << ",\"total_granted_usd\":" << num(r.total_granted_usd)
           << ",\"conservation_ok\":" << (r.conservation_ok ? "true" : "false")
           << ",\"uncontended\":" << (r.uncontended ? "true" : "false")
           << "}\n";
      }
    }
  });
}

}  // namespace flower::fleet
