// A "day of work" in a datacenter, following the paper's Section VI-A
// scenario: star-shaped virtual clusters arriving as a Poisson process on
// a directed grid substrate, node mappings fixed a priori, and the
// provider deciding admission, link embedding and scheduling jointly with
// the cΣ-Model.
//
//   ./examples/datacenter_day [--requests N] [--flex HOURS]
//                             [--grid-rows R] [--grid-cols C]
//                             [--time-limit SEC] [--seed S]
#include <cstdio>

#include "eval/args.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

using namespace tvnep;

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  workload::WorkloadParams params;
  params.grid_rows = args.get_int("grid-rows", 2);
  params.grid_cols = args.get_int("grid-cols", 3);
  params.star_leaves = args.get_int("leaves", 2);
  params.num_requests = args.get_int("requests", 5);
  params.flexibility = args.get_double("flex", 2.0);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  core::SolveParams solve_params;
  solve_params.time_limit_seconds = args.get_double("time-limit", 30.0);
  args.reject_unused_flags();

  const net::TvnepInstance instance = workload::generate_workload(params);
  std::printf("substrate: %d nodes / %d links; %d requests; horizon %.1f h\n",
              instance.substrate().num_nodes(),
              instance.substrate().num_links(), instance.num_requests(),
              instance.horizon());

  const core::TvnepSolveResult result =
      core::solve(instance, core::ModelKind::kCSigma, solve_params);

  std::printf("status %s, revenue %.2f (bound %.2f, gap %.1f%%), %ld nodes, "
              "%.2fs\n",
              mip::to_string(result.status), result.objective,
              result.best_bound, 100.0 * result.gap, result.nodes,
              result.seconds);
  if (!result.has_solution) return 1;

  std::printf("\n%-6s %-9s %-16s %-14s %s\n", "req", "decision", "window",
              "scheduled", "flexibility used");
  for (int r = 0; r < instance.num_requests(); ++r) {
    const auto& req = instance.request(r);
    const auto& emb = result.solution.requests[static_cast<std::size_t>(r)];
    std::printf("%-6s %-9s [%5.2f, %5.2f]   ", req.name().c_str(),
                emb.accepted ? "accept" : "reject", req.earliest_start(),
                req.latest_end());
    if (emb.accepted)
      std::printf("[%5.2f, %5.2f]  shifted %.2f h\n", emb.start, emb.end,
                  emb.start - req.earliest_start());
    else
      std::printf("--\n");
  }

  const core::ValidationResult check =
      core::validate_solution(instance, result.solution);
  std::printf("\nvalidator: %s\n", check.ok ? "OK" : check.errors[0].c_str());
  return check.ok ? 0 : 1;
}
