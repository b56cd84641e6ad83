// Energy savings through temporal scheduling (Section IV-E.4): how many
// substrate links can be switched off entirely over the whole horizon,
// with and without temporal flexibility. Scheduling requests apart in
// time lets their flows share the same few links.
//
//   ./examples/energy_savings [--requests N] [--time-limit SEC]
#include <cstdio>

#include "eval/args.hpp"
#include "greedy/greedy.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

using namespace tvnep;

namespace {

net::TvnepInstance admitted_subset(const net::TvnepInstance& full,
                                   double time_limit) {
  greedy::GreedyOptions options;
  options.per_iteration_time_limit = time_limit;
  const greedy::GreedyResult admitted = greedy::solve_greedy(full, options);
  net::TvnepInstance out(full.substrate(), full.horizon());
  for (int r = 0; r < full.num_requests(); ++r) {
    if (!admitted.solution.requests[static_cast<std::size_t>(r)].accepted)
      continue;
    if (full.has_fixed_mapping(r))
      out.add_request(full.request(r), full.fixed_mapping(r));
    else
      out.add_request(full.request(r));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Args args(argc, argv);
  const double time_limit = args.get_double("time-limit", 20.0);
  const int requests = args.get_int("requests", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unused_flags();

  std::printf("%-12s %-10s %-14s %s\n", "flexibility", "requests",
              "links off", "status");
  for (const double flex : {0.0, 1.0, 2.0, 3.0}) {
    workload::WorkloadParams params;
    params.grid_rows = 2;
    params.grid_cols = 3;
    params.star_leaves = 2;
    params.num_requests = requests;
    params.flexibility = flex;
    params.seed = seed;
    const net::TvnepInstance full = workload::generate_workload(params);
    const net::TvnepInstance instance = admitted_subset(full, time_limit);

    core::SolveParams solve_params;
    solve_params.build.objective = core::ObjectiveKind::kDisableLinks;
    solve_params.time_limit_seconds = time_limit;
    const core::TvnepSolveResult result =
        core::solve(instance, core::ModelKind::kCSigma, solve_params);

    std::printf("%-12.1f %-10d %4.0f / %-7d %s\n", flex,
                instance.num_requests(),
                result.has_solution ? result.objective : 0.0,
                instance.substrate().num_links(),
                mip::to_string(result.status));
  }
  return 0;
}
