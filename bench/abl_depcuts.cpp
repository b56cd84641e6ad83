// Ablation: value of the temporal dependency graph cuts (Section IV-C).
// Runs the cΣ-Model with and without Constraint (19) event-range presolve
// (which also drives the state-space reduction) and the pairwise cuts
// (20), comparing runtime and model size.
#include <iostream>

#include "fig_common.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/4,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/8.0, /*seeds=*/2,
                              {0.0, 1.0, 2.0},
                              /*respect_paper_scale=*/false);
  // The per-variant copies below share this journal; the variant name in
  // each cell key keeps their records apart.
  bench::attach_resilience(args, config, "abl_depcuts");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  struct Variant {
    const char* name;
    bool dependency_cuts;
    bool pairwise_cuts;
  };
  const Variant variants[] = {
      {"with-cuts", true, true},
      {"ranges-only", true, false},
      {"no-cuts", false, false},
  };

  for (const Variant& variant : variants) {
    std::cerr << "variant " << variant.name << "...\n";
    eval::SweepConfig cfg = config;
    cfg.cell_label = variant.name;
    cfg.build.dependency_cuts = variant.dependency_cuts;
    cfg.build.pairwise_cuts = variant.pairwise_cuts;
    const auto outcomes = eval::run_model_sweep(
        cfg, core::ModelKind::kCSigma, announce);
    bench::save_outcomes_csv("abl_depcuts_cells.csv", variant.name, outcomes,
                             /*append=*/&variant != &variants[0]);
    const auto runtimes = eval::series_by_flexibility(
        cfg, outcomes,
        [](const eval::ScenarioOutcome& o) { return o.result.seconds; });
    bench::print_series(
        std::string("Ablation — cΣ runtime [s], ") + variant.name,
        cfg.flexibilities, runtimes, std::cout,
        std::string("abl_depcuts_") + variant.name + ".csv");
    const auto sizes = eval::series_by_flexibility(
        cfg, outcomes, [](const eval::ScenarioOutcome& o) {
          return static_cast<double>(o.result.model_constraints);
        });
    bench::print_series(
        std::string("Ablation — cΣ constraint count, ") + variant.name,
        cfg.flexibilities, sizes, std::cout, "");
  }
  return 0;
}
