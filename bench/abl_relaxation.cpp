// Ablation: LP-relaxation strength of the three formulations (the Section
// III-C argument for the Σ-Model). Solves only the root relaxation of each
// model and reports the root bound relative to the best known integral
// objective — the Δ-Model's bound is far looser, which is exactly why its
// branch-and-bound trees explode. The reference optimum comes from one
// full cΣ sweep shared by all three models.
#include <iostream>

#include "fig_common.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/4,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/30.0, /*seeds=*/3,
                              {0.0, 1.0, 2.0, 3.0},
                              /*respect_paper_scale=*/false);
  bench::attach_resilience(args, config, "abl_relaxation");
  const auto announce = bench::progress_announcer(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  // Reference integral optimum from the strongest model.
  std::cerr << "reference " << core::to_string(core::ModelKind::kCSigma)
            << "...\n";
  const auto reference =
      eval::run_model_sweep(config, core::ModelKind::kCSigma, announce);

  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kSigma,
        core::ModelKind::kCSigma}) {
    // Root relaxation bound of this model: the tree stops after node 1.
    eval::SweepConfig root = config;
    root.cell_label = std::string("root-") + core::to_string(kind);
    root.solve_override = [](const net::TvnepInstance& instance,
                             core::ModelKind model,
                             const core::SolveParams& params) {
      core::SolveParams root_params = params;
      root_params.max_nodes = 1;
      return core::solve(instance, model, root_params);
    };
    std::cerr << root.cell_label << "...\n";
    const auto bounds = eval::run_model_sweep(root, kind, announce);

    // Cells without a usable reference optimum are dropped.
    std::vector<std::vector<double>> ratios(config.flexibilities.size());
    for (std::size_t cell = 0; cell < bounds.size(); ++cell) {
      const core::TvnepSolveResult& ref = reference[cell].result;
      if (!ref.has_solution || ref.objective <= 1e-9) continue;
      ratios[cell / static_cast<std::size_t>(config.seeds)].push_back(
          bounds[cell].result.best_bound / ref.objective);
    }
    bench::print_series(
        std::string("Relaxation strength — root bound / integral optimum, ") +
            core::to_string(kind) + " (1.0 = tight)",
        config.flexibilities, ratios, std::cout,
        std::string("abl_relaxation_") + core::to_string(kind) + ".csv");
  }
  return 0;
}
