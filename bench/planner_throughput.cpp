// Planner throughput bench: quantifies the incremental-planning
// machinery (PR "warm-started incremental planning") on the canonical
// 24-window day-ahead horizon. Four solver modes are timed at several
// thread counts:
//
//   cold        full NSGA-II run per window (the pre-PR behavior)
//   stall       cold + convergence early-exit
//   warm        window k seeds window k+1's initial population
//   warm_stall  both — the intended production configuration
//
// Thread counts apply to the *solver* (window-level threading stays at
// 1 everywhere) so warm chains — which are inherently sequential across
// windows — compare apples-to-apples against cold runs. Results land in
// a JSON file (default BENCH_planner.json) so future PRs have a perf
// trajectory. Full mode gates on the PR's acceptance criteria:
// warm+stall is >= 3x faster than cold at the same thread count, and
// every warm window's front hypervolume stays within 1% of cold's.
// --smoke shrinks the horizon, skips the gates, and always exits 0.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/time_series.h"
#include "common/units.h"
#include "core/windowed_share.h"
#include "opt/pareto.h"
#include "tools/flag_parser.h"

namespace flower {
namespace {

// Day-ahead diurnal rate forecast, one sample per 10 minutes.
TimeSeries DiurnalForecast(double horizon_sec) {
  TimeSeries out;
  const double step = 10.0 * kMinute;
  for (double t = 0.0; t < horizon_sec; t += step) {
    double rate =
        1200.0 + 900.0 * std::sin(2.0 * M_PI * (t - 6.0 * kHour) / kDay);
    out.AppendUnchecked(t, std::max(50.0, rate));
  }
  return out;
}

core::ResourceShareRequest BaseRequest() {
  core::ResourceShareRequest base;
  base.hourly_budget_usd = 4.0;
  pricing::PriceBook book;
  base.SetPricesFrom(book);
  base.bounds[0] = {1.0, 64.0};
  base.bounds[1] = {1.0, 40.0};
  base.bounds[2] = {1.0, 4000.0};
  base.constraints.push_back(core::LinearConstraint::AtMost(
      core::Layer::kIngestion, 2.0, core::Layer::kStorage, -1.0, 0.0,
      "2*shards <= wcu"));
  return base;
}

struct ModeSpec {
  const char* name;
  bool warm;
  size_t stall;
};

struct RunResult {
  std::string mode;
  size_t threads = 0;
  double wall_ms = 0.0;
  size_t windows = 0;
  size_t evaluations = 0;
  size_t early_exits = 0;
  /// Per-window front hypervolume over the three share objectives
  /// (reference point at the origin); NaN for skipped windows.
  std::vector<double> hv;
  /// Per-window Pareto-front sizes (carry-over merging can push warm
  /// fronts well past the population size).
  std::vector<size_t> front_n;
};

double FrontHypervolume(const std::vector<core::ProvisioningPlan>& front) {
  if (front.empty()) return std::nan("");
  std::vector<std::vector<double>> points;
  points.reserve(front.size());
  for (const core::ProvisioningPlan& p : front) {
    points.push_back({p.shares[0], p.shares[1], p.shares[2]});
  }
  return opt::Hypervolume3D(points, 0.0, 0.0, 0.0);
}

Result<RunResult> RunMode(const ModeSpec& mode, size_t threads,
                          const TimeSeries& forecast, size_t generations) {
  opt::Nsga2Config solver;
  solver.population_size = 80;
  solver.generations = generations;
  solver.num_threads = threads;
  core::IncrementalPlanning inc;
  inc.warm_start = mode.warm;
  inc.stall_generations = mode.stall;
  core::WindowedShareAnalyzer analyzer(BaseRequest(), core::DemandModel{},
                                       solver, /*num_threads=*/1, inc);
  auto t0 = std::chrono::steady_clock::now();
  auto plans = analyzer.PlanHorizon(forecast, 1.0 * kHour);
  auto t1 = std::chrono::steady_clock::now();
  FLOWER_RETURN_NOT_OK(plans.status());
  RunResult out;
  out.mode = mode.name;
  out.threads = threads;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.windows = plans->size();
  for (const core::WindowPlan& wp : *plans) {
    out.evaluations += wp.evaluations;
    if (wp.early_exit) ++out.early_exits;
    out.hv.push_back(FrontHypervolume(wp.pareto_plans));
    out.front_n.push_back(wp.pareto_plans.size());
  }
  return out;
}

void WriteJson(std::FILE* f, const std::vector<RunResult>& runs, bool smoke,
               size_t windows) {
  std::fprintf(f, "{\n  \"bench\": \"planner_throughput\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n  \"windows\": %zu,\n",
               smoke ? "true" : "false", windows);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    double hv_min = std::nan(""), hv_mean = 0.0;
    size_t hv_n = 0;
    for (double h : r.hv) {
      if (std::isnan(h)) continue;
      hv_min = std::isnan(hv_min) ? h : std::min(hv_min, h);
      hv_mean += h;
      ++hv_n;
    }
    if (hv_n > 0) hv_mean /= static_cast<double>(hv_n);
    size_t front_points = 0;
    for (size_t n : r.front_n) front_points += n;
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"wall_ms\": %.3f, "
                 "\"windows\": %zu, \"evaluations\": %zu, "
                 "\"early_exits\": %zu, \"front_points\": %zu, "
                 "\"hv_min\": %.6g, \"hv_mean\": %.6g}%s\n",
                 r.mode.c_str(), r.threads, r.wall_ms, r.windows,
                 r.evaluations, r.early_exits, front_points,
                 hv_n ? hv_min : 0.0, hv_n ? hv_mean : 0.0,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Run(size_t max_threads, bool smoke, const std::string& out_path) {
  bench::Header(smoke
                    ? "PERF  Planner throughput (smoke): warm starts + "
                      "early-exit"
                    : "PERF  Planner throughput: warm starts + early-exit vs "
                      "cold solves");

  const double horizon = smoke ? 6.0 * kHour : 24.0 * kHour;
  const size_t generations = smoke ? 30 : 120;
  const size_t stall = 6;
  TimeSeries forecast = DiurnalForecast(horizon);

  std::vector<size_t> thread_counts{1};
  if (!smoke) {
    if (max_threads >= 4) thread_counts.push_back(4);
    if (max_threads > 4) thread_counts.push_back(max_threads);
  } else if (max_threads > 1) {
    thread_counts.push_back(std::min<size_t>(max_threads, 4));
  }

  const ModeSpec modes[] = {
      {"cold", false, 0},
      {"stall", false, stall},
      {"warm", true, 0},
      {"warm_stall", true, stall},
  };

  std::vector<RunResult> runs;
  TablePrinter table({"mode", "threads", "wall (ms)", "evaluations",
                      "early exits", "min front HV"});
  for (size_t threads : thread_counts) {
    for (const ModeSpec& mode : modes) {
      auto res = RunMode(mode, threads, forecast, generations);
      if (!res.ok()) {
        std::cerr << res.status() << "\n";
        return smoke ? 0 : 1;
      }
      double hv_min = std::nan("");
      for (double h : res->hv) {
        if (!std::isnan(h)) hv_min = std::isnan(hv_min) ? h : std::min(hv_min, h);
      }
      table.AddRow({res->mode, std::to_string(res->threads),
                    TablePrinter::Num(res->wall_ms, 1),
                    std::to_string(res->evaluations),
                    std::to_string(res->early_exits),
                    TablePrinter::Num(std::isnan(hv_min) ? 0.0 : hv_min, 0)});
      runs.push_back(std::move(*res));
    }
  }
  table.Print(std::cout);

  size_t windows = runs.empty() ? 0 : runs.front().windows;
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    WriteJson(f, runs, smoke, windows);
    std::fclose(f);
    std::cout << "\nwrote " << out_path << "\n";
  } else {
    std::cerr << "could not open " << out_path << " for writing\n";
    if (!smoke) return 1;
  }

  if (smoke) {
    std::cout << "[SKIP] smoke mode: gates not evaluated\n";
    return 0;
  }

  // --- Gates. Look up cold and warm_stall per thread count.
  auto find = [&](const char* mode, size_t threads) -> const RunResult* {
    for (const RunResult& r : runs) {
      if (r.mode == mode && r.threads == threads) return &r;
    }
    return nullptr;
  };
  bool ok = true;
  for (size_t threads : thread_counts) {
    const RunResult* cold = find("cold", threads);
    const RunResult* ws = find("warm_stall", threads);
    if (cold == nullptr || ws == nullptr) continue;
    double speedup = ws->wall_ms > 0.0 ? cold->wall_ms / ws->wall_ms : 0.0;
    ok &= bench::Verdict(
        "warm+early-exit >= 3x faster than cold at " +
            std::to_string(threads) + " thread(s) (got " +
            TablePrinter::Num(speedup, 2) + "x)",
        speedup >= 3.0);
    // Front quality: every warm window's hypervolume within 1% of cold.
    bool hv_ok = ws->hv.size() == cold->hv.size();
    double worst = 1.0;
    for (size_t w = 0; hv_ok && w < ws->hv.size(); ++w) {
      if (std::isnan(cold->hv[w]) || std::isnan(ws->hv[w])) continue;
      if (cold->hv[w] <= 0.0) continue;
      double ratio = ws->hv[w] / cold->hv[w];
      if (ratio < 0.995) {
        std::printf("  window %zu: cold HV %.6g (%zu points), warm_stall HV "
                    "%.6g (%zu points), ratio %.4f\n",
                    w, cold->hv[w], cold->front_n[w], ws->hv[w],
                    ws->front_n[w], ratio);
      }
      worst = std::min(worst, ratio);
      if (ratio < 0.99) hv_ok = false;
    }
    ok &= bench::Verdict(
        "every warm window's front HV >= cold - 1% at " +
            std::to_string(threads) + " thread(s) (worst ratio " +
            TablePrinter::Num(worst, 4) + ")",
        hv_ok);
    const RunResult* warm = find("warm", threads);
    if (warm != nullptr) {
      ok &= bench::Verdict(
          "warm start alone does not increase evaluations at " +
              std::to_string(threads) + " thread(s)",
          warm->evaluations <= cold->evaluations);
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status()
              << "\nusage: planner_throughput [--threads=N] [--smoke] "
                 "[--out=BENCH_planner.json]\n";
    return 2;
  }
  auto threads = flags->GetInt("threads", 0);
  if (!threads.ok() || *threads < 0) {
    std::cerr << "--threads expects a non-negative integer\n";
    return 2;
  }
  size_t n = static_cast<size_t>(*threads);
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  bool smoke = flags->GetBool("smoke");
  std::string out = flags->GetString("out", "BENCH_planner.json");
  return flower::Run(n, smoke, out);
}
