// Figure 7: relative performance of the greedy cΣ_A^G with respect to the
// best solution found by the (exact) cΣ-Model under access control:
//     (objective(cΣ) - objective(cΣ_A^G)) / objective(cΣ)  [%]
//
// Expected shape: median around 5-10%, occasionally above 10%; greedy
// iteration runtimes a fraction of a second, far below the exact solves.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "fig_common.hpp"
#include "greedy/greedy.hpp"
#include "obs/metrics.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  eval::SweepConfig config = eval::sweep_from_args(args, /*requests=*/5,
                                                   /*rows=*/2, /*cols=*/3,
                                                   /*leaves=*/2);
  bench::apply_quick_defaults(args, config, /*time_limit=*/10.0, /*seeds=*/3,
                              {0.0, 1.0, 2.0, 3.0});
  bench::attach_resilience(args, config, "fig7");
  const bool quiet = bench::quiet(args);
  args.reject_unused_flags();
  bench::announce_threads(config);

  const std::size_t seeds = static_cast<std::size_t>(config.seeds);
  // Per-cell slots (NaN = cell skipped because the exact solve produced no
  // usable reference); compacted in deterministic grid order below.
  const double kSkipped = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> cell_off_by(
      config.flexibilities.size(), std::vector<double>(seeds, kSkipped));
  std::vector<std::vector<double>> cell_iteration_times(
      config.flexibilities.size() * seeds);

  eval::for_each_cell(config, [&](std::size_t f, int seed, std::size_t cell) {
    // Journal-backed resume (bespoke cells get checkpointing but not the
    // watchdog/retry ladder of the run_*_sweep harnesses). The greedy
    // iteration-time trajectory rides along as one space-separated field.
    const eval::CellKey key{"fig7", static_cast<int>(f), seed};
    if (config.journal) {
      if (const eval::CellRecord* rec = config.journal->find(key)) {
        cell_off_by[f][static_cast<std::size_t>(seed)] =
            rec->number("off_by", kSkipped);
        std::istringstream times(rec->text("iteration_seconds"));
        double t = 0.0;
        while (times >> t) cell_iteration_times[cell].push_back(t);
        obs::counter_add("sweep.resumed_cells");
        return;
      }
    }
    workload::WorkloadParams params = config.base;
    params.seed = static_cast<std::uint64_t>(seed) + 1;
    const net::TvnepInstance instance =
        workload::generate_workload_with_flexibility(
            params, config.flexibilities[f]);

    greedy::GreedyOptions greedy_options;
    greedy_options.per_iteration_time_limit = config.time_limit;
    greedy_options.mip.presolve = config.presolve;
    const greedy::GreedyResult g = greedy::solve_greedy(instance, greedy_options);
    cell_iteration_times[cell] = g.iteration_seconds;

    core::SolveParams solve_params;
    solve_params.build = config.build;
    solve_params.time_limit_seconds = config.time_limit;
    solve_params.mip.presolve = config.presolve;
    const core::TvnepSolveResult exact =
        core::solve(instance, core::ModelKind::kCSigma, solve_params);

    double relative = kSkipped;
    double greedy_revenue = 0.0;
    if (exact.has_solution && exact.objective > 1e-9) {
      greedy_revenue = g.solution.revenue(instance);
      relative = 100.0 * std::max(0.0, exact.objective - greedy_revenue) /
                 exact.objective;
      cell_off_by[f][static_cast<std::size_t>(seed)] = relative;
    }
    if (config.journal) {
      eval::CellRecord rec;
      rec.key = key;
      rec.fields["kind"] = eval::JournalValue("fig7");
      rec.fields["off_by"] = eval::JournalValue(relative);
      std::ostringstream times;
      times.precision(17);
      for (std::size_t i = 0; i < g.iteration_seconds.size(); ++i) {
        if (i > 0) times << ' ';
        times << g.iteration_seconds[i];
      }
      rec.fields["iteration_seconds"] = eval::JournalValue(times.str());
      config.journal->append(rec);
    }
    if (std::isnan(relative)) return;

    if (!quiet) {
      std::lock_guard<std::mutex> lock(bench::log_mutex());
      std::cerr << "  flex=" << config.flexibilities[f] << " seed=" << seed
                << " exact=" << exact.objective << " greedy=" << greedy_revenue
                << " off=" << relative << "%\n";
    }
  });

  std::vector<std::vector<double>> off_by(config.flexibilities.size());
  for (std::size_t f = 0; f < config.flexibilities.size(); ++f)
    for (const double v : cell_off_by[f])
      if (!std::isnan(v)) off_by[f].push_back(v);
  std::vector<double> greedy_iteration_times;
  for (const auto& times : cell_iteration_times)
    greedy_iteration_times.insert(greedy_iteration_times.end(), times.begin(),
                                  times.end());

  bench::print_series(
      "Fig 7 — greedy cΣ_A^G objective shortfall vs exact cΣ [%]",
      config.flexibilities, off_by, std::cout, "fig7_greedy_quality.csv");

  const Summary iteration = summarize(greedy_iteration_times);
  std::cout << "greedy per-iteration runtime [s]: median "
            << Table::fmt(iteration.median) << ", max "
            << Table::fmt(iteration.max) << " over " << iteration.count
            << " iterations\n";
  return 0;
}
