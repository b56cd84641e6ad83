// Figures 3 and 4: the Δ-, Σ- and cΣ-Model MIP formulations under the
// access-control objective, one sweep per model, as a function of
// temporal flexibility.
//   Fig 3 — runtime. The paper caps runs at 3600 s; a run at the cap
//           means "no optimal solution found".
//   Fig 4 — objective gap (relative difference between the incumbent and
//           the proven bound) after the time limit. Runs that found no
//           incumbent report the paper's "∞" marker (capped at 10 for
//           finite summaries).
//
// Expected shape: cΣ fastest by about an order of magnitude over Σ; Δ hits
// the cap (and usually finds no incumbent at all) already at moderate
// flexibility. Σ and cΣ always find solutions, with cΣ's gaps about an
// order of magnitude smaller. Flags: see eval::sweep_from_args
// (--paper-scale for the full Section VI-A setup). Writes fig3_4_cells.csv,
// fig3_runtime_<model>.csv and fig4_gap_<model>.csv.
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
  // Bench id "fig3" keeps journals of the former runtime-only bench
  // resumable.
  bench::attach_resilience(args, config, "fig3");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const core::ModelKind models[] = {core::ModelKind::kDelta,
                                    core::ModelKind::kSigma,
                                    core::ModelKind::kCSigma};
  std::vector<std::vector<eval::ScenarioOutcome>> outcomes;
  for (const core::ModelKind kind : models) {
    std::cerr << "model " << core::to_string(kind) << "...\n";
    outcomes.push_back(eval::run_model_sweep(config, kind, announce));
    bench::save_outcomes_csv("fig3_4_cells.csv", core::to_string(kind),
                             outcomes.back(),
                             /*append=*/outcomes.size() > 1);
  }

  for (std::size_t m = 0; m < outcomes.size(); ++m) {
    const std::string model = core::to_string(models[m]);
    const auto runtimes = eval::series_by_flexibility(
        config, outcomes[m],
        [](const eval::ScenarioOutcome& o) { return o.result.seconds; });
    bench::print_series("Fig 3 — runtime [s] of " + model + " (cap " +
                            Table::fmt(config.time_limit, 0) +
                            "s = unsolved)",
                        config.flexibilities, runtimes, std::cout,
                        "fig3_runtime_" + model + ".csv");
  }
  for (std::size_t m = 0; m < outcomes.size(); ++m) {
    const std::string model = core::to_string(models[m]);
    const auto gaps = eval::series_by_flexibility(
        config, outcomes[m], [](const eval::ScenarioOutcome& o) {
          return bench::capped_gap(o.result);
        });
    bench::print_series("Fig 4 — objective gap of " + model +
                            " after the time limit (10 = no incumbent, "
                            "paper's ∞)",
                        config.flexibilities, gaps, std::cout,
                        "fig4_gap_" + model + ".csv");
  }
  return 0;
}
