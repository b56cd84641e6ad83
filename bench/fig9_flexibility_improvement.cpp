// Figure 9: relative improvement of the access-control objective compared
// with the objective at flexibility 0, per workload:
//     100 · (obj(flex) - obj(0)) / obj(0)  [%]
//
// Expected shape: near-linear growth — already little time flexibility
// improves overall system performance significantly (the paper's headline
// takeaway).
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
  bench::attach_resilience(args, config, "fig9");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const auto outcomes = eval::run_model_sweep(config, core::ModelKind::kCSigma,
                                              announce);
  bench::save_outcomes_csv("fig9_cells.csv",
                           core::to_string(core::ModelKind::kCSigma), outcomes);

  // Baseline objective per seed at flexibility 0.
  std::vector<double> baseline(static_cast<std::size_t>(config.seeds), 0.0);
  for (const auto& o : outcomes)
    if (o.flexibility == 0.0 && o.result.has_solution)
      baseline[static_cast<std::size_t>(o.seed)] = o.result.objective;

  std::vector<std::vector<double>> improvement(config.flexibilities.size());
  for (const auto& o : outcomes) {
    const double base = baseline[static_cast<std::size_t>(o.seed)];
    if (base <= 1e-9 || !o.result.has_solution) continue;
    for (std::size_t f = 0; f < config.flexibilities.size(); ++f)
      if (config.flexibilities[f] == o.flexibility)
        improvement[f].push_back(100.0 * (o.result.objective - base) / base);
  }
  bench::print_series(
      "Fig 9 — access-control objective improvement over flexibility 0 [%]",
      config.flexibilities, improvement, std::cout,
      "fig9_flexibility_improvement.csv");
  return 0;
}
