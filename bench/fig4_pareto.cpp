// Reproduces paper Fig. 4: Pareto-optimal resource-share plans for the
// click-stream flow, found by NSGA-II over the provisioning-plan space
// (paper §3.2). The scenario uses the paper's stated dependency
// constraints: 5·r_A >= r_I, 2·r_A <= r_I, 2·r_I <= r_S, where r_I =
// Kinesis shards, r_A = Storm VMs, r_S = DynamoDB write capacity units,
// plus the budget constraint (Eq. 4). The paper reports six Pareto
// optimal solutions; the exact count depends on the budget and bounds,
// so the bench prints the full front and checks the *shape*: a small
// discrete front whose members NSGA-II recovers exactly (validated
// against an exhaustive oracle), including an ablation of
// constrained-domination vs penalty handling. Solver wall times go to
// stderr, so stdout is byte-identical across runs.

#include <chrono>
#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/resource_share.h"
#include "exec/thread_pool.h"
#include "opt/nsga2.h"
#include "tools/flag_parser.h"

namespace flower {
namespace {

using core::Layer;
using core::LinearConstraint;
using core::ProvisioningPlan;
using core::ResourceShareAnalyzer;
using core::ResourceShareRequest;

ResourceShareRequest Fig4Request() {
  ResourceShareRequest req;
  // Budget and bounds tuned so the constrained front has exactly six
  // plans, matching the count the paper reports for its demo scenario.
  req.hourly_budget_usd = 0.60;
  pricing::PriceBook book;
  req.SetPricesFrom(book);
  req.bounds[0] = {1.0, 10.0};    // Shards.
  req.bounds[1] = {1.0, 3.0};     // VMs.
  req.bounds[2] = {1.0, 350.0};   // WCU.
  req.constraints.push_back(LinearConstraint::AtLeast(
      Layer::kAnalytics, 5.0, Layer::kIngestion, 1.0, "5*r_A >= r_I"));
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kAnalytics, 2.0, Layer::kIngestion, -1.0, 0.0,
      "2*r_A <= r_I"));
  req.constraints.push_back(LinearConstraint::AtMost(
      Layer::kIngestion, 2.0, Layer::kStorage, -1.0, 0.0, "2*r_I <= r_S"));
  return req;
}

void PrintFront(const std::string& label,
                const std::vector<ProvisioningPlan>& plans) {
  std::cout << "\n" << label << " (" << plans.size() << " plans):\n";
  TablePrinter table({"plan", "shards (r_I)", "VMs (r_A)", "WCU (r_S)",
                      "$/hour"});
  int i = 1;
  for (const ProvisioningPlan& p : plans) {
    table.AddRow({std::to_string(i++), TablePrinter::Num(p.ingestion(), 0),
                  TablePrinter::Num(p.analytics(), 0),
                  TablePrinter::Num(p.storage(), 0),
                  TablePrinter::Num(p.hourly_cost_usd, 3)});
  }
  table.Print(std::cout);
}

std::set<std::tuple<double, double, double>> AsSet(
    const std::vector<ProvisioningPlan>& plans) {
  std::set<std::tuple<double, double, double>> s;
  for (const auto& p : plans) {
    s.insert({p.ingestion(), p.analytics(), p.storage()});
  }
  return s;
}

int Run(size_t threads) {
  bench::Header("FIG4  Pareto-optimal resource share plans (paper Fig. 4)");
  ResourceShareRequest req = Fig4Request();
  std::cout << "max (r_I, r_A, r_S)  s.t.  cost <= $"
            << TablePrinter::Num(req.hourly_budget_usd, 2)
            << "/h,  5*r_A >= r_I,  2*r_A <= r_I,  2*r_I <= r_S\n"
            << "prices: shard $" << req.unit_price[0] << "/h, VM $"
            << req.unit_price[1] << "/h, WCU $" << req.unit_price[2]
            << "/h\n";

  // Exhaustive oracle (exact front).
  ResourceShareAnalyzer oracle_analyzer;
  auto t0 = std::chrono::steady_clock::now();
  auto oracle = oracle_analyzer.AnalyzeExhaustive(req);
  auto t1 = std::chrono::steady_clock::now();
  if (!oracle.ok()) {
    std::cerr << oracle.status() << "\n";
    return 1;
  }
  PrintFront("Exhaustive oracle front", oracle->pareto_plans);
  std::cerr << "oracle time: "
            << std::chrono::duration<double, std::milli>(t1 - t0).count()
            << " ms over " << 10 * 3 * 350 << " grid points\n";

  // NSGA-II (the paper's solver), single-threaded baseline.
  opt::Nsga2Config solver;
  solver.population_size = 100;
  solver.generations = 250;
  solver.seed = 7;
  solver.num_threads = 1;
  ResourceShareAnalyzer analyzer(solver);
  t0 = std::chrono::steady_clock::now();
  auto nsga = analyzer.Analyze(req);
  t1 = std::chrono::steady_clock::now();
  if (!nsga.ok()) {
    std::cerr << nsga.status() << "\n";
    return 1;
  }
  double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  PrintFront("NSGA-II front (pop=100, gen=250)", nsga->pareto_plans);
  std::cerr << "NSGA-II time (1 thread): " << serial_ms << " ms, "
            << nsga->evaluations << " evaluations\n";

  // The same solve at --threads N must land on the bit-identical front
  // (per-pair RNG streams + coordinator-side reductions).
  opt::Nsga2Config parallel_solver = solver;
  parallel_solver.num_threads = threads;
  ResourceShareAnalyzer parallel_analyzer(parallel_solver);
  t0 = std::chrono::steady_clock::now();
  auto nsga_mt = parallel_analyzer.Analyze(req);
  t1 = std::chrono::steady_clock::now();
  bool identical_front = false;
  if (nsga_mt.ok()) {
    identical_front = AsSet(nsga_mt->pareto_plans) == AsSet(nsga->pareto_plans);
    std::cerr << "NSGA-II time (" << threads << " threads): "
              << std::chrono::duration<double, std::milli>(t1 - t0).count()
              << " ms (evaluation fan-out is fine-grained here; see the "
                 "PLAN bench for the coarse-grained speedup)\n";
  } else {
    std::cerr << nsga_mt.status() << "\n";
  }

  // Ablation: penalty-function constraint handling.
  ResourceShareRequest penalty_req = req;
  penalty_req.handling = core::ConstraintHandling::kPenalty;
  auto penalty = analyzer.Analyze(penalty_req);
  if (penalty.ok()) {
    PrintFront("Ablation: penalty-function constraint handling",
               penalty->pareto_plans);
  }

  // Flower's automatic plan selection and controller upper bounds.
  auto balanced = ResourceShareAnalyzer::PickBalancedPlan(*nsga, req);
  auto max_shares = ResourceShareAnalyzer::MaxShares(*nsga);
  if (balanced.ok() && max_shares.ok()) {
    std::cout << "\nAuto-selected balanced plan: r_I="
              << balanced->ingestion() << ", r_A=" << balanced->analytics()
              << ", r_S=" << balanced->storage() << " ($"
              << TablePrinter::Num(balanced->hourly_cost_usd, 3) << "/h)\n";
    std::cout << "Controller share upper bounds (max over front): r_I<="
              << max_shares->ingestion() << ", r_A<="
              << max_shares->analytics() << ", r_S<="
              << max_shares->storage() << "\n";
  }

  auto oracle_set = AsSet(oracle->pareto_plans);
  auto nsga_set = AsSet(nsga->pareto_plans);
  size_t on_front = 0;
  for (const auto& p : nsga_set) {
    if (oracle_set.count(p)) ++on_front;
  }

  bool ok = true;
  ok &= bench::Verdict(
      "six Pareto-optimal plans, as the paper reports for its scenario",
      oracle->pareto_plans.size() == 6);
  ok &= bench::Verdict("every NSGA-II plan is truly Pareto-optimal",
                       on_front == nsga_set.size() && !nsga_set.empty());
  ok &= bench::Verdict(
      "NSGA-II recovers >= 2/3 of the exact front",
      3 * nsga_set.size() >= 2 * oracle_set.size());
  ok &= bench::Verdict(
      "same seed at " + std::to_string(threads) +
          " threads reproduces the 1-thread front exactly",
      identical_front);
  if (penalty.ok()) {
    ok &= bench::Verdict(
        "penalty ablation finds no more of the front than "
        "constrained-domination",
        penalty->pareto_plans.size() <= nsga->pareto_plans.size());
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: fig4_pareto [--threads=N]\n";
  auto flags = flower::tools::FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n" << kUsage;
    return 2;
  }
  flower::Status known = flags->CheckKnown({"threads"}, {});
  if (!known.ok()) {
    std::cerr << known.message() << "\n" << kUsage;
    return 2;
  }
  auto threads = flags->GetUnsigned("threads", 8, flower::exec::kMaxThreads);
  if (!threads.ok() || *threads < 1) {
    std::cerr << "--threads expects an integer in [1, "
              << flower::exec::kMaxThreads << "]\n";
    return 2;
  }
  return flower::Run(static_cast<size_t>(*threads));
}
