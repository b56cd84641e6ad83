// Figures 5 and 6: the cΣ-Model under the three objectives that do not
// perform admission (Section IV-E): maximize earliness, balance node load
// over time, and disable links for energy savings. One sweep per
// objective; each cell first runs the greedy cΣ_A^G on the full workload
// and then solves the subset it admits, so that embedding the whole set
// is feasible.
//   Fig 5 — runtime of the cΣ solve.
//   Fig 6 — its objective gap after the time limit (10 = no incumbent,
//           the paper's ∞).
//
// Expected shape: all three solvable quickly at low flexibility, with
// mostly zero gaps; link disabling hardest, its runtimes growing and
// nonzero gaps appearing with flexibility. Writes fig5_6_cells.csv,
// fig5_runtime_<objective>.csv and fig6_gap_<objective>.csv.
#include <iostream>

#include "fig_common.hpp"
#include "greedy/greedy.hpp"

using namespace tvnep;

namespace {

// The per-cell work: greedy admission on the full workload, then the exact
// solve of the instance restricted to the admitted requests (substrate,
// horizon and fixed mappings kept). The fixed-set objectives require every
// remaining request to be embeddable; the greedy's accepted set gives
// that, the way an operator would schedule an admitted batch. Both solves
// run under the sweep's solver options.
core::TvnepSolveResult solve_admitted(const net::TvnepInstance& full,
                                      core::ModelKind kind,
                                      const core::SolveParams& params) {
  greedy::GreedyOptions greedy_options;
  greedy_options.per_iteration_time_limit = params.time_limit_seconds;
  greedy_options.mip = params.mip;
  const greedy::GreedyResult admitted =
      greedy::solve_greedy(full, greedy_options);
  net::TvnepInstance instance(full.substrate(), full.horizon());
  for (int r = 0; r < full.num_requests(); ++r) {
    if (!admitted.solution.requests[static_cast<std::size_t>(r)].accepted)
      continue;
    if (full.has_fixed_mapping(r))
      instance.add_request(full.request(r), full.fixed_mapping(r));
    else
      instance.add_request(full.request(r));
  }
  return core::solve(instance, kind, params);
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/5,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/8.0, /*seeds=*/2,
                              {0.0, 1.0, 2.0, 3.0});
  bench::attach_resilience(args, config, "fig5_6");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const core::ObjectiveKind objectives[] = {
      core::ObjectiveKind::kMaxEarliness,
      core::ObjectiveKind::kBalanceNodeLoad,
      core::ObjectiveKind::kDisableLinks};
  std::vector<std::vector<eval::ScenarioOutcome>> outcomes;
  for (const core::ObjectiveKind objective : objectives) {
    std::cerr << "objective " << core::to_string(objective) << "...\n";
    // The objective names key the journal records apart.
    eval::SweepConfig cfg = config;
    cfg.cell_label = core::to_string(objective);
    cfg.build.objective = objective;
    cfg.solve_override = solve_admitted;
    outcomes.push_back(
        eval::run_model_sweep(cfg, core::ModelKind::kCSigma, announce));
    bench::save_outcomes_csv("fig5_6_cells.csv", cfg.cell_label,
                             outcomes.back(),
                             /*append=*/outcomes.size() > 1);
  }

  for (std::size_t o = 0; o < outcomes.size(); ++o) {
    const std::string objective = core::to_string(objectives[o]);
    const auto runtimes = eval::series_by_flexibility(
        config, outcomes[o],
        [](const eval::ScenarioOutcome& c) { return c.result.seconds; });
    bench::print_series("Fig 5 — cΣ runtime [s] under " + objective,
                        config.flexibilities, runtimes, std::cout,
                        "fig5_runtime_" + objective + ".csv");
  }
  for (std::size_t o = 0; o < outcomes.size(); ++o) {
    const std::string objective = core::to_string(objectives[o]);
    const auto gaps = eval::series_by_flexibility(
        config, outcomes[o], [](const eval::ScenarioOutcome& c) {
          return bench::capped_gap(c.result);
        });
    bench::print_series(
        "Fig 6 — cΣ gap under " + objective + " (10 = no incumbent, paper's ∞)",
        config.flexibilities, gaps, std::cout, "fig6_gap_" + objective + ".csv");
  }
  return 0;
}
