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
/// are precomputed and grouped by exact virtual time into events; a
/// tenant task advances its partition boundary to boundary, posting a
/// demand snapshot into its mailbox at each one. The event whose every
/// participant has posted is arbitrated — strictly in ascending
/// virtual-time order, under a single-flight token — over the fleet
/// budget minus the grants currently held by tenants *not* at this
/// boundary, which is what conserves the budget per overlapping
/// window. Grants flow back through the mailboxes; a tenant whose
/// grant is not ready parks (its task returns) and is re-spawned by
/// the arbitration that answers it, so only that tenant waits — never
/// the fleet.
///
/// Determinism: boundary times and event order are pure functions of
/// the tenant configs; demands are pure functions of each partition's
/// own simulation at the boundary; the remainder budget at an event
/// depends only on grants from earlier events (ascending-order
/// processing). No result anywhere depends on which worker ran what.
struct FleetManager::SweepEngine {
  struct TenantState {
    std::vector<SimTime> boundaries;  ///< start + k * P_i, < target.
    std::vector<size_t> event_of;     ///< Event index per boundary.
    uint64_t seq_base = 0;  ///< Mailbox seq before this run's windows.
    // Task-owned cursor (ownership transfers through the park baton).
    size_t k = 0;             ///< Current boundary index.
    bool posted_first = false;
    bool advancing = false;   ///< Grant consumed, segment not yet run.
    /// Park baton: set by the tenant task before it returns to wait,
    /// cleared by whoever takes responsibility for resuming it (the
    /// arbitration that posts the grant, or the task itself when the
    /// grant lands in the park window). Exactly one side wins the
    /// exchange, so the tenant is resumed exactly once.
    std::atomic<bool> parked{false};
  };

  struct Window {
    SimTime open = 0.0, close = 0.0;
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
  /// windows[i][k] = tenant i's window opening at boundaries[k].
  std::vector<std::vector<Window>> windows;
  std::vector<double> current_grant;  ///< Guarded by events_mu.
  std::mutex events_mu;               ///< Single-flight processing token.
  std::atomic<size_t> next_event{0};  ///< Written under events_mu.

  SweepEngine(FleetManager& fleet, SimTime start_t, SimTime target_t)
      : fm(fleet), start(start_t), target(target_t) {}

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
      TenantState& s = states[i];
      s.seq_base = fm.partitions_[i]->mailbox().demand_seq();
      for (uint64_t k = 0;; ++k) {
        SimTime b = start + static_cast<double>(k) * period;
        if (b >= target) break;
        s.boundaries.push_back(b);
        marks.emplace_back(b, static_cast<uint32_t>(i));
      }
      s.event_of.resize(s.boundaries.size());
      windows[i].resize(s.boundaries.size());
      for (size_t k = 0; k < s.boundaries.size(); ++k) {
        windows[i][k].open = s.boundaries[k];
        windows[i][k].close =
            k + 1 < s.boundaries.size() ? s.boundaries[k + 1] : target;
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
        states[i].event_of[k] = e;
        ev.participants.push_back(i);
        ev.boundary_index.push_back(k);
      }
    }
    return Status::OK();
  }

  void PostAndArrive(uint32_t i, size_t k) {
    TenantState& s = states[i];
    fm.partitions_[i]->PostBoundaryDemand(s.boundaries[k]);
    events[s.event_of[k]].arrived.fetch_add(1);
  }

  bool EventReady(size_t e) const {
    return events[e].arrived.load() ==
           static_cast<uint32_t>(events[e].participants.size());
  }

  /// Arbitrates event `e`: closes the participants' previous windows,
  /// opens their next ones, and posts grants. Runs under events_mu.
  Status ProcessEvent(size_t e, exec::ThreadPool::TaskContext& ctx) {
    Event& ev = events[e];
    size_t p = ev.participants.size();
    std::vector<double> demands(p), weights(p);
    for (size_t idx = 0; idx < p; ++idx) {
      uint32_t i = ev.participants[idx];
      uint32_t k = ev.boundary_index[idx];
      const BudgetMailbox& mb = fm.partitions_[i]->mailbox();
      if (mb.demand_seq() < states[i].seq_base + k + 1) {
        return Status::Internal("FleetManager: demand not posted at event");
      }
      const BudgetMailbox::Demand& d = mb.demand();
      if (k > 0) {
        Window& prev = windows[i][k - 1];
        prev.spend = d.spend_usd;
        prev.steps_close = d.steps;
      }
      Window& w = windows[i][k];
      w.demand = d.demand_usd;
      w.steps_open = d.steps;
      demands[idx] = d.demand_usd;
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
      uint32_t i = ev.participants[idx];
      Window& w = windows[i][ev.boundary_index[idx]];
      w.grant = split.grants_usd[idx];
      w.conserved = conserved;
      w.uncontended = split.uncontended;
    }
    // Answer the mailboxes last, then hand parked tenants back to the
    // pool. The baton exchange makes the resume exactly-once even when
    // the tenant is mid-park on another worker.
    for (size_t idx = 0; idx < p; ++idx) {
      uint32_t i = ev.participants[idx];
      BudgetMailbox::Grant g;
      g.boundary = ev.time;
      g.demand_usd = demands[idx];
      g.grant_usd = split.grants_usd[idx];
      fm.partitions_[i]->mailbox().PostGrant(g);
      if (states[i].parked.exchange(false)) ctx.Spawn(i);
    }
    return Status::OK();
  }

  /// Drains ready events in ascending virtual-time order. try_lock +
  /// recheck-after-unlock: a thread that loses the token returns, and
  /// the holder re-checks after releasing so an event made ready during
  /// its critical section is never stranded.
  Status ProcessReadyEvents(exec::ThreadPool::TaskContext& ctx) {
    for (;;) {
      if (!events_mu.try_lock()) return Status::OK();
      Status st = Status::OK();
      while (st.ok()) {
        size_t e = next_event.load(std::memory_order_relaxed);
        if (e >= num_events || !EventReady(e)) break;
        st = ProcessEvent(e, ctx);
        if (st.ok()) {
          next_event.store(e + 1, std::memory_order_relaxed);
        }
      }
      events_mu.unlock();
      if (!st.ok()) return st;
      size_t e = next_event.load();
      if (e >= num_events || !EventReady(e)) return Status::OK();
    }
  }

  /// One tenant's task body. Runs the partition from its current
  /// boundary toward the target, parking at boundaries whose grant has
  /// not been arbitrated yet.
  Status TenantTask(uint64_t id, exec::ThreadPool::TaskContext& ctx) {
    uint32_t i = static_cast<uint32_t>(id);
    TenantState& s = states[i];
    FlowPartition* part = fm.partitions_[i].get();
    if (!s.posted_first) {
      s.posted_first = true;
      PostAndArrive(i, 0);
      FLOWER_RETURN_NOT_OK(ProcessReadyEvents(ctx));
    }
    for (;;) {
      if (!s.advancing) {
        uint64_t seq = s.seq_base + s.k + 1;
        if (part->TryConsumeGrant(seq)) {
          s.advancing = true;
        } else {
          s.parked.store(true);
          if (part->mailbox().grant_seq() >= seq &&
              s.parked.exchange(false)) {
            // The grant landed inside the park window and we won our
            // own baton back — consume inline instead of returning.
            part->TryConsumeGrant(seq);
            s.advancing = true;
          } else {
            part->mailbox().RecordWait();
            return Status::OK();  // Resumed by the arbitration's Spawn.
          }
        }
      }
      SimTime next =
          s.k + 1 < s.boundaries.size() ? s.boundaries[s.k + 1] : target;
      FLOWER_RETURN_NOT_OK(part->AdvanceTo(next));
      if (s.k + 1 >= s.boundaries.size()) return Status::OK();
      ++s.k;
      s.advancing = false;
      PostAndArrive(i, s.k);
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
  if (horizon_sec == 0.0) return Status::OK();
  auto t0 = std::chrono::steady_clock::now();
  SweepEngine engine(*this, now_, now_ + horizon_sec);
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
  stats_.tasks_spawned += ts.spawned;
  stats_.steals += ts.steals;
  stats_.busy_sec += ts.busy_sec;
  engine.Finalize();
  now_ = engine.target;
  stats_.wall_sec +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Status::OK();
}

FleetSweepStats FleetManager::sweep_stats() const {
  FleetSweepStats out = stats_;
  for (const std::unique_ptr<FlowPartition>& p : partitions_) {
    out.mailbox_waits += p->mailbox().waits();
  }
  return out;
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
