// Ablation: LP-relaxation strength of the three formulations (the Section
// III-C argument for the Σ-Model). Solves only the root relaxation of each
// model and reports the root bound relative to the best known integral
// objective — the Δ-Model's bound is far looser, which is exactly why its
// branch-and-bound trees explode.
#include <cmath>
#include <iostream>
#include <limits>

#include "fig_common.hpp"
#include "obs/metrics.hpp"

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
  args.reject_unused_flags();
  bench::announce_threads(config);

  const double kSkipped = std::numeric_limits<double>::quiet_NaN();

  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kSigma,
        core::ModelKind::kCSigma}) {
    // Per-cell slots (NaN = no usable reference optimum); compacted in
    // deterministic grid order below.
    std::vector<std::vector<double>> cell_ratios(
        config.flexibilities.size(),
        std::vector<double>(static_cast<std::size_t>(config.seeds), kSkipped));
    eval::for_each_cell(config, [&](std::size_t f, int seed, std::size_t) {
      // Journal-backed resume (bespoke cells get checkpointing but not the
      // watchdog/retry ladder of the run_*_sweep harnesses). NaN ratios
      // (no usable reference) round-trip via the journal's nan sentinel.
      const eval::CellKey key{core::to_string(kind), static_cast<int>(f),
                              seed};
      if (config.journal) {
        if (const eval::CellRecord* rec = config.journal->find(key)) {
          cell_ratios[f][static_cast<std::size_t>(seed)] =
              rec->number("ratio", kSkipped);
          obs::counter_add("sweep.resumed_cells");
          return;
        }
      }
      workload::WorkloadParams params = config.base;
      params.seed = static_cast<std::uint64_t>(seed) + 1;
      const net::TvnepInstance instance =
          workload::generate_workload_with_flexibility(
              params, config.flexibilities[f]);

      // Root relaxation bound of this model.
      core::SolveParams root;
      root.build = config.build;
      root.max_nodes = 1;
      root.time_limit_seconds = config.time_limit;
      root.mip.presolve = config.presolve;
      const auto root_result = core::solve(instance, kind, root);

      // Reference integral optimum from the strongest model.
      core::SolveParams full;
      full.build = config.build;
      full.time_limit_seconds = config.time_limit;
      full.mip.presolve = config.presolve;
      const auto reference =
          core::solve(instance, core::ModelKind::kCSigma, full);

      double ratio = kSkipped;
      if (reference.has_solution && reference.objective > 1e-9) {
        ratio = root_result.best_bound / reference.objective;
        cell_ratios[f][static_cast<std::size_t>(seed)] = ratio;
      }
      if (config.journal) {
        eval::CellRecord rec;
        rec.key = key;
        rec.fields["kind"] = eval::JournalValue("abl_relaxation");
        rec.fields["ratio"] = eval::JournalValue(ratio);
        config.journal->append(rec);
      }
    });
    std::vector<std::vector<double>> ratios(config.flexibilities.size());
    for (std::size_t f = 0; f < config.flexibilities.size(); ++f)
      for (const double v : cell_ratios[f])
        if (!std::isnan(v)) ratios[f].push_back(v);
    bench::print_series(
        std::string("Relaxation strength — root bound / integral optimum, ") +
            core::to_string(kind) + " (1.0 = tight)",
        config.flexibilities, ratios, std::cout,
        std::string("abl_relaxation_") + core::to_string(kind) + ".csv");
  }
  return 0;
}
