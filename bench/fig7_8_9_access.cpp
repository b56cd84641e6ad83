// Figures 7, 8 and 9: the cΣ-Model under access control against the
// greedy cΣ_A^G, from one cΣ sweep and one greedy sweep paired by cell.
//   Fig 7 — relative performance of the greedy with respect to the best
//           solution found by the exact cΣ-Model:
//               (objective(cΣ) - objective(cΣ_A^G)) / objective(cΣ)  [%]
//           plus the greedy's per-iteration runtimes.
//   Fig 8 — number of requests embedded by cΣ.
//   Fig 9 — relative improvement of the cΣ objective over the same
//           workload at flexibility 0:
//               100 · (obj(flex) - obj(0)) / obj(0)  [%]
//
// Expected shape: greedy shortfall median around 5-10%, occasionally above
// 10%, with iteration runtimes a fraction of a second, far below the exact
// solves; embedded requests and the objective grow roughly linearly with
// flexibility — already little time flexibility improves overall system
// performance significantly (the paper's headline takeaway). Writes
// fig7_8_9_cells.csv, fig7_greedy_quality.csv, fig8_embedded_requests.csv
// and fig9_flexibility_improvement.csv.
#include <algorithm>
#include <iostream>

#include "fig_common.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/5,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/10.0, /*seeds=*/3,
                              {0.0, 1.0, 2.0, 3.0});
  bench::attach_resilience(args, config, "fig7_8_9");
  const auto announce = bench::progress_announcer(args);
  const auto announce_greedy =
      bench::progress_announcer<eval::GreedyOutcome>(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  std::cerr << "model " << core::to_string(core::ModelKind::kCSigma)
            << "...\n";
  const auto exact =
      eval::run_model_sweep(config, core::ModelKind::kCSigma, announce);
  bench::save_outcomes_csv("fig7_8_9_cells.csv",
                           core::to_string(core::ModelKind::kCSigma), exact);
  std::cerr << "greedy...\n";
  const auto greedy = eval::run_greedy_sweep(config, announce_greedy);

  // Fig 7: cells whose exact solve has no usable reference are dropped.
  std::vector<std::vector<double>> off_by(config.flexibilities.size());
  std::vector<double> iteration_times;
  for (std::size_t cell = 0; cell < exact.size(); ++cell) {
    const std::size_t f = cell / static_cast<std::size_t>(config.seeds);
    const core::TvnepSolveResult& e = exact[cell].result;
    const eval::GreedyOutcome& g = greedy[cell];
    iteration_times.insert(iteration_times.end(),
                           g.result.iteration_seconds.begin(),
                           g.result.iteration_seconds.end());
    if (g.failed || !e.has_solution || e.objective <= 1e-9) continue;
    off_by[f].push_back(100.0 * std::max(0.0, e.objective - g.revenue) /
                        e.objective);
  }
  bench::print_series(
      "Fig 7 — greedy cΣ_A^G objective shortfall vs exact cΣ [%]",
      config.flexibilities, off_by, std::cout, "fig7_greedy_quality.csv");
  const Summary iteration = summarize(iteration_times);
  std::cout << "greedy per-iteration runtime [s]: median "
            << Table::fmt(iteration.median) << ", max "
            << Table::fmt(iteration.max) << " over " << iteration.count
            << " iterations\n";

  // Fig 8: accepted_requests is the flat mirror of
  // solution.num_accepted(), so journal-resumed cells plot the same.
  const auto accepted = eval::series_by_flexibility(
      config, exact, [](const eval::ScenarioOutcome& o) {
        return o.result.has_solution
                   ? static_cast<double>(o.result.accepted_requests)
                   : 0.0;
      });
  bench::print_series("Fig 8 — number of requests embedded by cΣ",
                      config.flexibilities, accepted, std::cout,
                      "fig8_embedded_requests.csv");

  // Fig 9: baseline objective per seed at flexibility 0.
  std::vector<double> baseline(static_cast<std::size_t>(config.seeds), 0.0);
  for (const auto& o : exact)
    if (o.flexibility == 0.0 && o.result.has_solution)
      baseline[static_cast<std::size_t>(o.seed)] = o.result.objective;
  std::vector<std::vector<double>> improvement(config.flexibilities.size());
  for (std::size_t cell = 0; cell < exact.size(); ++cell) {
    const eval::ScenarioOutcome& o = exact[cell];
    const double base = baseline[static_cast<std::size_t>(o.seed)];
    if (base <= 1e-9 || !o.result.has_solution) continue;
    improvement[cell / static_cast<std::size_t>(config.seeds)].push_back(
        100.0 * (o.result.objective - base) / base);
  }
  bench::print_series(
      "Fig 9 — access-control objective improvement over flexibility 0 [%]",
      config.flexibilities, improvement, std::cout,
      "fig9_flexibility_improvement.csv");
  return 0;
}
