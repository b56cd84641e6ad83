// Admission control: the greedy cΣ_A^G against the exact cΣ-Model on one
// workload, mirroring the paper's Figure 7 comparison on a single
// scenario. Shows accepted sets, revenues and runtimes side by side.
//
//   ./examples/admission_control [--requests N] [--flex HOURS] [--seed S]
#include <cstdio>

#include "eval/args.hpp"
#include "greedy/greedy.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.num_requests = args.get_int("requests", 5);
  params.flexibility = args.get_double("flex", 2.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double time_limit = args.get_double("time-limit", 20.0);
  args.reject_unused_flags();
  const net::TvnepInstance instance = workload::generate_workload(params);

  greedy::GreedyOptions greedy_options;
  greedy_options.per_iteration_time_limit = time_limit;
  const greedy::GreedyResult g = greedy::solve_greedy(instance, greedy_options);

  core::SolveParams solve_params;
  solve_params.time_limit_seconds = time_limit;
  const core::TvnepSolveResult exact =
      core::solve(instance, core::ModelKind::kCSigma, solve_params);

  std::printf("%-6s %-18s %-18s\n", "req", "greedy cΣ_A^G", "exact cΣ");
  for (int r = 0; r < instance.num_requests(); ++r) {
    const auto& ge = g.solution.requests[static_cast<std::size_t>(r)];
    std::printf("%-6s ", instance.request(r).name().c_str());
    if (ge.accepted) std::printf("[%5.2f, %5.2f]     ", ge.start, ge.end);
    else std::printf("rejected           ");
    if (exact.has_solution) {
      const auto& ee = exact.solution.requests[static_cast<std::size_t>(r)];
      if (ee.accepted) std::printf("[%5.2f, %5.2f]\n", ee.start, ee.end);
      else std::printf("rejected\n");
    } else {
      std::printf("--\n");
    }
  }

  const double greedy_revenue = g.solution.revenue(instance);
  std::printf("\ngreedy : revenue %.2f, accepted %d, total %.2fs (max "
              "iteration %.2fs)\n",
              greedy_revenue, g.accepted, g.total_seconds,
              g.max_iteration_seconds());
  std::printf("exact  : revenue %.2f, accepted %d, %.2fs (%s, gap %.1f%%)\n",
              exact.objective,
              exact.has_solution ? exact.solution.num_accepted() : 0,
              exact.seconds, mip::to_string(exact.status), 100.0 * exact.gap);
  if (exact.has_solution && exact.objective > 1e-9)
    std::printf("greedy is %.1f%% below the exact objective\n",
                100.0 * (exact.objective - greedy_revenue) / exact.objective);
  return 0;
}
