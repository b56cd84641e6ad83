// Figure 5: runtime of the cΣ-Model under the three objectives that do not
// perform admission (Section IV-E): maximize earliness, balance node load
// over time, and disable links for energy savings. The request set per
// scenario is the subset the greedy cΣ_A^G admits, so that embedding the
// whole set is feasible.
//
// Expected shape: all three solvable quickly at low flexibility; link
// disabling hardest, runtimes growing with flexibility.
#include <iostream>

#include "fig_common.hpp"
#include "greedy/greedy.hpp"
#include "obs/metrics.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/5,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/8.0, /*seeds=*/2,
                              {0.0, 1.0, 2.0, 3.0});
  bench::attach_resilience(args, config, "fig5");
  const bool quiet = bench::quiet(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const core::ObjectiveKind objectives[] = {
      core::ObjectiveKind::kMaxEarliness,
      core::ObjectiveKind::kBalanceNodeLoad,
      core::ObjectiveKind::kDisableLinks};

  for (const core::ObjectiveKind objective : objectives) {
    std::cerr << "objective " << core::to_string(objective) << "...\n";
    // One slot per cell, written only by that cell's worker, so the series
    // is identical for every --threads value.
    std::vector<std::vector<double>> runtimes(
        config.flexibilities.size(),
        std::vector<double>(static_cast<std::size_t>(config.seeds), 0.0));
    eval::for_each_cell(config, [&](std::size_t f, int seed, std::size_t) {
      // Journal-backed resume (bespoke cells get checkpointing but not the
      // watchdog/retry ladder of the run_*_sweep harnesses).
      const eval::CellKey key{core::to_string(objective),
                              static_cast<int>(f), seed};
      if (config.journal) {
        if (const eval::CellRecord* rec = config.journal->find(key)) {
          runtimes[f][static_cast<std::size_t>(seed)] =
              rec->number("seconds");
          obs::counter_add("sweep.resumed_cells");
          return;
        }
      }
      workload::WorkloadParams params = config.base;
      params.seed = static_cast<std::uint64_t>(seed) + 1;
      const net::TvnepInstance full =
          workload::generate_workload_with_flexibility(
              params, config.flexibilities[f]);

      greedy::GreedyOptions greedy_options;
      greedy_options.per_iteration_time_limit = config.time_limit;
      greedy_options.mip.presolve = config.presolve;
      const greedy::GreedyResult admitted =
          greedy::solve_greedy(full, greedy_options);
      std::vector<int> keep;
      for (int r = 0; r < full.num_requests(); ++r)
        if (admitted.solution.requests[static_cast<std::size_t>(r)].accepted)
          keep.push_back(r);
      const net::TvnepInstance instance = bench::restrict_to(full, keep);

      core::SolveParams solve_params;
      solve_params.build = config.build;
      solve_params.build.objective = objective;
      solve_params.time_limit_seconds = config.time_limit;
      solve_params.mip.presolve = config.presolve;
      const core::TvnepSolveResult result =
          core::solve(instance, core::ModelKind::kCSigma, solve_params);
      runtimes[f][static_cast<std::size_t>(seed)] = result.seconds;
      if (config.journal) {
        eval::CellRecord rec;
        rec.key = key;
        rec.fields["kind"] = eval::JournalValue("fig5");
        rec.fields["seconds"] = eval::JournalValue(result.seconds);
        rec.fields["status"] =
            eval::JournalValue(mip::to_string(result.status));
        config.journal->append(rec);
      }

      if (!quiet) {
        std::lock_guard<std::mutex> lock(bench::log_mutex());
        std::cerr << "  flex=" << config.flexibilities[f] << " seed=" << seed
                  << " kept=" << keep.size()
                  << " status=" << mip::to_string(result.status)
                  << " t=" << result.seconds << "s\n";
      }
    });
    bench::print_series(
        std::string("Fig 5 — cΣ runtime [s] under ") + core::to_string(objective),
        config.flexibilities, runtimes, std::cout,
        std::string("fig5_runtime_") + core::to_string(objective) + ".csv");
  }
  return 0;
}
