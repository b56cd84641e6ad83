// Figure 4: objective gap (relative difference between the incumbent and
// the proven bound) of the Δ-, Σ- and cΣ-Models after the time limit.
// Runs that found no incumbent report the paper's "∞" marker (capped at
// 10 for finite summaries).
//
// Expected shape: Δ mostly at ∞ from moderate flexibility on; Σ and cΣ
// always find solutions, with cΣ's gaps about an order of magnitude
// smaller.
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
  bench::attach_resilience(args, config, "fig4");
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
    bench::save_outcomes_csv("fig4_cells.csv", core::to_string(kind), outcomes,
                             /*append=*/!first_model);
    first_model = false;
    const auto gaps = eval::series_by_flexibility(
        config, outcomes, [&](const eval::ScenarioOutcome& o) {
          return bench::capped_gap(o.result);
        });
    bench::print_series(
        std::string("Fig 4 — objective gap of ") + core::to_string(kind) +
            " after the time limit (10 = no incumbent, paper's ∞)",
        config.flexibilities, gaps, std::cout,
        std::string("fig4_gap_") + core::to_string(kind) + ".csv");
  }
  return 0;
}
