// Figure 8: number of requests embedded by the cΣ-Model (access control)
// as a function of temporal flexibility.
//
// Expected shape: roughly linear growth with flexibility.
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
  bench::attach_resilience(args, config, "fig8");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const auto outcomes = eval::run_model_sweep(config, core::ModelKind::kCSigma,
                                              announce);
  bench::save_outcomes_csv("fig8_cells.csv",
                           core::to_string(core::ModelKind::kCSigma), outcomes);
  // accepted_requests is the flat mirror of solution.num_accepted(), so
  // journal-resumed cells (which carry no solution object) plot the same.
  const auto accepted = eval::series_by_flexibility(
      config, outcomes, [](const eval::ScenarioOutcome& o) {
        return o.result.has_solution
                   ? static_cast<double>(o.result.accepted_requests)
                   : 0.0;
      });
  bench::print_series("Fig 8 — number of requests embedded by cΣ",
                      config.flexibilities, accepted, std::cout,
                      "fig8_embedded_requests.csv");
  return 0;
}
