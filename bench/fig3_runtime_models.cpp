// Figure 3: runtime of the Δ-, Σ- and cΣ-Model MIP formulations as a
// function of temporal flexibility (access-control objective). The paper
// caps runs at 3600 s; a run at the cap means "no optimal solution found".
//
// Expected shape: cΣ fastest by about an order of magnitude over Σ; Δ hits
// the cap (and usually finds no incumbent at all) already at moderate
// flexibility. Flags: see eval::sweep_from_args (--paper-scale for the
// full Section VI-A setup).
#include <iostream>

#include "fig_common.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/4,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/8.0, /*seeds=*/2,
                              {0.0, 1.0, 2.0, 3.0});
  bench::attach_resilience(args, config, "fig3");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  bool first_model = true;
  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kSigma,
        core::ModelKind::kCSigma}) {
    std::cerr << "model " << core::to_string(kind) << "...\n";
    const auto outcomes =
        eval::run_model_sweep(config, kind, announce);
    bench::save_outcomes_csv("fig3_cells.csv", core::to_string(kind), outcomes,
                             /*append=*/!first_model);
    first_model = false;
    const auto runtimes = eval::series_by_flexibility(
        config, outcomes,
        [&](const eval::ScenarioOutcome& o) { return o.result.seconds; });
    bench::print_series(
        std::string("Fig 3 — runtime [s] of ") + core::to_string(kind) +
            " (cap " + Table::fmt(config.time_limit, 0) + "s = unsolved)",
        config.flexibilities, runtimes, std::cout,
        std::string("fig3_runtime_") + core::to_string(kind) + ".csv");
  }
  return 0;
}
